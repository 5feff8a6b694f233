"""``repro.xp`` — the array-backend layer.

One array abstraction spans the whole pipeline: the autodiff tape
(:mod:`repro.tensor`), the compiled levelized engine (:mod:`repro.engine`),
the CNF evaluation kernel (:mod:`repro.cnf.kernel`) and the samplers all
route their array work through the *active* :class:`ArrayBackend` instead of
importing NumPy directly.  :class:`NumpyBackend` is the only runtime: its
``float64`` policy is the bitwise reference and ``numpy:float32`` the
reduced-precision throughput policy.

Selection (precedence: environment < config < CLI):

>>> import repro.xp as xp
>>> xp.active_backend().name                       # env default: "numpy"
'numpy'
>>> with xp.use_backend("numpy:float32"):          # scoped override
...     ...
>>> # per-sampler: SamplerConfig(array_backend="numpy:float32") / CLI --array-backend

``clear_caches()`` drops every memoised compiled artifact (engine programs,
CNF evaluation plans and their native-kernel layouts) — the explicit
invalidation hook that previously existed only implicitly via mutation.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Union

import numpy as np

from repro.xp.backend import (
    ArrayBackend,
    BackendRNG,
    BackendUnavailableError,
    NumpyBackend,
)
from repro.xp.registry import (
    BACKEND_ENV_VAR,
    default_spec,
    get_backend,
    parse_spec,
    validate_spec,
)

__all__ = [
    "ArrayBackend",
    "BackendRNG",
    "BackendUnavailableError",
    "NumpyBackend",
    "BACKEND_ENV_VAR",
    "default_spec",
    "get_backend",
    "parse_spec",
    "validate_spec",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "backend_for",
    "to_numpy",
    "clear_caches",
]

#: Per-thread explicitly-activated backend; unset falls through to the env
#: default.  Thread-local so concurrent samplers with different array
#: backends cannot corrupt each other's resolution mid-round.
_ACTIVE = threading.local()


def active_backend() -> ArrayBackend:
    """The backend hot paths resolve when no explicit backend is passed.

    Returns the backend installed *in this thread* by
    :func:`set_active_backend` / :func:`use_backend`, else the
    ``REPRO_ARRAY_BACKEND`` environment default, else NumPy.
    """
    backend = getattr(_ACTIVE, "backend", None)
    if backend is not None:
        return backend
    return get_backend(None)


def set_active_backend(backend: Union[ArrayBackend, str, None]) -> None:
    """Install the calling thread's active backend.

    Accepts a backend instance, a spec string, or ``None`` to restore the
    environment-driven default.
    """
    if backend is None or isinstance(backend, ArrayBackend):
        _ACTIVE.backend = backend
    else:
        _ACTIVE.backend = get_backend(backend)


@contextlib.contextmanager
def use_backend(backend: Union[ArrayBackend, str]) -> Iterator[ArrayBackend]:
    """Scoped, per-thread :func:`set_active_backend` (samplers wrap their
    hot loops in it)."""
    previous = getattr(_ACTIVE, "backend", None)
    set_active_backend(backend)
    try:
        yield active_backend()
    finally:
        _ACTIVE.backend = previous


def backend_for(array) -> ArrayBackend:
    """The backend evaluation of caller-supplied ``array`` runs on.

    Caller arrays are host arrays, so this is always the ``float64`` NumPy
    reference, whatever dtype policy is active: host-side consumers
    (metrics, baselines) are unaffected by ``REPRO_ARRAY_BACKEND``.  Every
    public evaluation entry point that accepts caller arrays
    (``CNF.evaluate_batch``, direct ``CNFEvalPlan`` calls, ``simulate``,
    ``complete_assignments``) defaults through this one rule.
    """
    return get_backend("numpy")


def to_numpy(array) -> np.ndarray:
    """Bring a backend array to the host (a view, never a copy, for ndarrays)."""
    return np.asarray(array)


def clear_caches() -> None:
    """Drop every memoised compiled artifact in the process.

    Clears the per-circuit compiled-program memos of the engine, the
    per-formula CNF evaluation plans and the per-artifact native-kernel
    layouts (:func:`repro.native.clear_caches`).  Until now these caches
    could only be invalidated by mutating the owning circuit/formula; this
    is the explicit hook for long-lived processes that want to release
    memory.
    """
    from repro import native
    from repro.cnf import kernel as cnf_kernel
    from repro.core.transform import clear_transform_caches
    from repro.engine import compiler as engine_compiler

    engine_compiler.clear_program_caches()
    cnf_kernel.clear_plan_caches()
    clear_transform_caches()
    native.clear_caches()
