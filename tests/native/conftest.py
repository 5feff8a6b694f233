"""Fixtures for the C-tier suite.

The engine has one tier, the C kernels of :mod:`repro.native`; a host
without a C compiler cannot run the library, and these fixtures fail there
with the :class:`~repro.native.BackendUnavailableError` that names why.
"""

from __future__ import annotations

import pytest

from repro import native

#: The engine's one tier (its name appears in the test ids).
TIER = "cext"


@pytest.fixture(params=[TIER])
def tier(request) -> str:
    """The tier the engine runs on here."""
    assert native.active_tier() == request.param
    return request.param


@pytest.fixture
def kernels(tier):
    """The :class:`~repro.native.kernels.NativeKernels` of the C tier."""
    return native.kernels_for(None)
