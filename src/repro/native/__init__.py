"""The native kernel tier for the engine's hot loops (``repro.native``).

With everything NumPy can vectorise already vectorised, the remaining
engine wall-clock lives in the executor's per-block dispatch.  This package
provides compiled implementations of that loop — forward, backward, bool and
packed modes — each pinned to the NumPy path by the equivalence suite in
``tests/native/``: small dependency-free C kernels compiled on demand with
the system compiler and loaded via :mod:`ctypes` (:mod:`repro.native.cext`),
reported as the ``"cext"`` tier.

The platform picks the tier; no caller chooses it.  The engine uses the C
tier exactly when it builds, and runs its NumPy paths otherwise — the two
are bitwise identical on every output.  The one process-wide escape hatch is
the ``REPRO_NATIVE`` environment variable, read once when the tier is
probed:

* unset, empty or ``auto`` — use the C tier if it builds;
* ``off`` — never use it;
* any other value fails with a :class:`ValueError` naming the variable.

The probe is memoised; the one-time build cost is reported by
:func:`compile_seconds` so the serving layer and the benchmarks can keep
cold-vs-warm numbers honest.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Tuple

from repro.native.kernels import NativeKernels, clear_artifact_caches


class BackendUnavailableError(ImportError):
    """Raised when the C tier cannot be brought up on this host."""


#: Environment variable switching the C tier off (``off``) or on (``auto``).
NATIVE_ENV_VAR = "REPRO_NATIVE"

_LOCK = threading.Lock()
#: Memoised probe of the C tier: (kernels or None, reason or None).
_PROBE: Optional[Tuple[Optional[NativeKernels], Optional[str]]] = None


def _env_setting() -> str:
    value = os.environ.get(NATIVE_ENV_VAR, "") or "auto"
    if value not in ("auto", "off"):
        raise ValueError(
            f"${NATIVE_ENV_VAR} must be unset, 'auto' or 'off', got {value!r}"
        )
    return value


def _probe() -> Tuple[Optional[NativeKernels], Optional[str]]:
    global _PROBE
    probe = _PROBE  # lock-free fast path once probed
    if probe is not None:
        return probe
    with _LOCK:
        if _PROBE is None:
            if _env_setting() == "off":
                _PROBE = (None, f"native C tier disabled by ${NATIVE_ENV_VAR}=off")
            else:
                try:
                    _PROBE = (NativeKernels(), None)
                except BackendUnavailableError as error:
                    _PROBE = (None, str(error))
                except Exception as error:  # pragma: no cover - environment-specific
                    _PROBE = (None, f"native C tier failed to load: {error}")
        return _PROBE


def kernels_for(mode: None = None) -> Optional[NativeKernels]:
    """The C tier's kernel set, or ``None`` when it is off or does not build.

    ``mode`` is accepted only as ``None`` (callers write
    ``kernels_for(None)``): the platform, not the caller, picks the tier.
    """
    if mode is not None:
        raise TypeError(
            f"kernels_for takes no kernel mode (got {mode!r}); the tier is "
            f"the C tier when it builds, switched off only by ${NATIVE_ENV_VAR}=off"
        )
    return _probe()[0]


def native_available() -> bool:
    """Whether the engine runs on the C tier in this process."""
    return kernels_for(None) is not None


def active_tier() -> Optional[str]:
    """Name of the tier the engine runs on (``None`` = the NumPy paths)."""
    kernels = kernels_for(None)
    return None if kernels is None else kernels.tier


def compile_seconds() -> float:
    """Total wall-clock seconds this process spent building native kernels.

    The C tier's shared-library build (0.0 on a disk-cache hit).  Monotone
    non-decreasing; callers snapshot deltas around work units to attribute
    compile cost honestly.
    """
    from repro.native import cext

    return cext.compile_seconds()


def clear_caches() -> None:
    """Drop the per-program native memos (flattened op arrays).

    Folded into :func:`repro.clear_caches`; the compiled library itself
    stays loaded (it is artifact-independent).
    """
    clear_artifact_caches()


__all__ = [
    "BackendUnavailableError",
    "NATIVE_ENV_VAR",
    "NativeKernels",
    "active_tier",
    "clear_caches",
    "compile_seconds",
    "kernels_for",
    "native_available",
]
