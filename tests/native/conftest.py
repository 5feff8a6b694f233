"""Fixtures for the native-kernel equivalence suite.

Every test parametrised over ``kernels``/``tier`` runs against the C tier
wherever a system compiler can build it, and is skipped when it cannot (or
when ``REPRO_NATIVE=off``) — the suite must pass on hosts without a
compiler.  The NumPy side of each comparison runs under :func:`numpy_tier`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro import native
from tests.conftest import force_numpy_tier

#: The C tier's name ("cext"), or None where the engine runs on NumPy.
TIER = native.active_tier()


@pytest.fixture(params=[TIER or "missing"])
def tier(request) -> str:
    """The tier the engine runs on here (the test id names it).

    Skips when the C tier is unavailable on this host.
    """
    if request.param == "missing":
        pytest.skip("no native kernel tier available on this host")
    return request.param


@pytest.fixture
def kernels(tier):
    """The :class:`~repro.native.kernels.NativeKernels` of the C tier."""
    return native.kernels_for(None)


@contextmanager
def numpy_tier() -> Iterator[None]:
    """Run the block on the engine's NumPy paths, then restore the tier."""
    with pytest.MonkeyPatch.context() as patch:
        force_numpy_tier(patch)
        yield
