"""The engine's C tier (``repro.native``).

The engine's forward, backward and boolean passes run as small
dependency-free C kernels, compiled on demand with the system compiler and
loaded via :mod:`ctypes` (:mod:`repro.native.cext`), reported as the
``"cext"`` tier.  They are the engine's only implementation, pinned bit for
bit to the per-op NumPy loop of ``tests/oracles/executor.py``.

A C compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``) is therefore
required, and there is no switch: :func:`kernels_for` and
:func:`active_tier` return the tier or raise
:class:`BackendUnavailableError`, whose message names the failure — no
compiler, a failed compile or load, or an unsafe cache directory.  The
sampler and the serving layer probe once at construction, so a host that
cannot build the tier fails before any job is admitted.

The build is memoised by :mod:`repro.native.cext` (a failure too); its
one-time cost is reported by :func:`compile_seconds` so the serving layer
and the benchmarks can keep cold-vs-warm numbers honest.
"""

from __future__ import annotations

from repro.native.cext import BackendUnavailableError, compile_seconds
from repro.native.kernels import NativeKernels


def kernels_for(mode: None = None) -> NativeKernels:
    """The C tier's kernel set; raises :class:`BackendUnavailableError`
    naming why the tier cannot be brought up on this host.

    ``mode`` is accepted only as ``None`` (callers write
    ``kernels_for(None)``): there is one tier, and no caller picks it.
    """
    if mode is not None:
        raise TypeError(f"kernels_for takes no kernel mode (got {mode!r}); there is one tier")
    return NativeKernels()


def active_tier() -> str:
    """Name of the tier the engine runs on (``"cext"``); raises
    :class:`BackendUnavailableError` when it cannot be brought up."""
    return kernels_for(None).tier


__all__ = [
    "BackendUnavailableError",
    "NativeKernels",
    "active_tier",
    "compile_seconds",
    "kernels_for",
]
