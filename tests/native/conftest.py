"""Fixtures for the native-kernel equivalence suite.

Every test parametrised over ``kernels``/``tier`` runs against the C tier
wherever a system compiler can build it, and is skipped when it cannot —
the suite must pass on hosts without a compiler.
"""

from __future__ import annotations

import pytest

from repro import native

#: The C tier's name ("cext"), or None where it cannot be brought up.
TIER = native.active_tier("auto")


@pytest.fixture(params=[TIER or "missing"])
def tier(request) -> str:
    """The kernel mode that engages the C tier (the test id names the tier).

    Skips when the tier is unavailable on this host.
    """
    if request.param == "missing":
        pytest.skip("no native kernel tier available on this host")
    return "native"


@pytest.fixture
def kernels(tier):
    """The :class:`~repro.native.kernels.NativeKernels` of the C tier."""
    return native.kernels_for(tier)
