"""Backend specs: parsing, validation, environment default, memoised instances.

A *spec* is ``"numpy"`` or ``"numpy:<float-dtype>"`` — ``"numpy"``,
``"numpy:float32"``.  The dtype suffix selects the backend's float policy
(``float64`` is the bitwise reference, ``float32`` the reduced-precision
throughput mode).

Resolution precedence across the library is **environment < config < CLI**:

* ``REPRO_ARRAY_BACKEND`` sets the process-wide default consulted by
  :func:`repro.xp.active_backend` when nothing was selected explicitly;
* ``SamplerConfig(array_backend=...)`` overrides the environment for one
  sampler;
* the CLI flag ``--array-backend`` writes the config field, so it wins.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.xp.backend import ArrayBackend, NumpyBackend

#: Environment variable holding the process-wide default backend spec.
BACKEND_ENV_VAR = "REPRO_ARRAY_BACKEND"

#: The one array runtime a spec may name.
BACKEND_NAME = "numpy"

#: Float-dtype policies a spec suffix may name.
FLOAT_DTYPES = ("float64", "float32")

_INSTANCES: Dict[str, ArrayBackend] = {}


def parse_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split and validate a backend spec into ``(name, float_dtype_or_None)``."""
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"backend spec must be a non-empty string, got {spec!r}")
    name, separator, dtype = spec.partition(":")
    if separator and not dtype:
        raise ValueError(f"backend spec {spec!r} has an empty dtype suffix")
    dtype = dtype or None
    if name != BACKEND_NAME:
        raise ValueError(
            f"unknown array backend {name!r}; the only backend is {BACKEND_NAME!r}"
        )
    if dtype is not None and dtype not in FLOAT_DTYPES:
        raise ValueError(
            f"unknown float dtype {dtype!r} in spec {spec!r}; choose from {FLOAT_DTYPES}"
        )
    return name, dtype


def validate_spec(spec: str) -> str:
    """Check a spec's syntax without instantiating; returns it."""
    parse_spec(spec)
    return spec


def default_spec() -> str:
    """The process default: ``REPRO_ARRAY_BACKEND`` or ``"numpy"``."""
    return os.environ.get(BACKEND_ENV_VAR, BACKEND_NAME)


def get_backend(spec: Optional[str] = None) -> ArrayBackend:
    """Resolve a spec to a (memoised) backend instance.

    ``None`` resolves the environment default.  Raises ``ValueError`` for
    malformed specs.
    """
    spec = spec if spec is not None else default_spec()
    instance = _INSTANCES.get(spec)
    if instance is None:
        _, dtype = parse_spec(spec)
        instance = NumpyBackend(float_dtype=dtype)
        _INSTANCES[spec] = instance
    return instance
