"""Configuration of the gradient-descent sampler.

Defaults follow Section IV of the paper: plain gradient descent with learning
rate 10, 5 iterations, and a batch size chosen per instance (the paper sweeps
100 to 1,000,000; the default here is sized for CPU-hosted NumPy execution).

Which engine tier runs the circuit (the on-demand C kernels or the NumPy
paths, bitwise identical) is not a field here: the platform picks it, and
``REPRO_NATIVE=off`` is the one process-wide switch (:mod:`repro.native`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.gpu.device import Device, DeviceKind
from repro.utils.validation import check_positive

#: Environment variable holding the process-default array-backend spec.
ARRAY_BACKEND_ENV_VAR = "REPRO_ARRAY_BACKEND"

#: The array-backend spec vocabulary and the float dtype each spec selects:
#: ``float64`` is the bitwise reference, ``float32`` the reduced-precision
#: throughput policy.  NumPy is the only array runtime.
ARRAY_BACKEND_DTYPES = {
    "numpy": np.dtype(np.float64),
    "numpy:float64": np.dtype(np.float64),
    "numpy:float32": np.dtype(np.float32),
}


def array_dtype(spec: Optional[str] = None) -> np.dtype:
    """The float dtype an array-backend spec selects.

    ``None`` resolves the process default: ``$REPRO_ARRAY_BACKEND``, else
    ``"numpy"``.  Raises ``ValueError`` for a spec outside
    :data:`ARRAY_BACKEND_DTYPES`.
    """
    if spec is None:
        spec = os.environ.get(ARRAY_BACKEND_ENV_VAR, "numpy")
    dtype = ARRAY_BACKEND_DTYPES.get(spec) if isinstance(spec, str) else None
    if dtype is None:
        raise ValueError(
            f"unknown array backend {spec!r}; choose from {sorted(ARRAY_BACKEND_DTYPES)}"
        )
    return dtype


@dataclass(frozen=True)
class SamplerConfig:
    """Hyper-parameters of :class:`repro.core.sampler.GradientSATSampler`."""

    #: Number of candidate solutions learned in parallel per round (paper: 100..1e6).
    batch_size: int = 2048
    #: Gradient-descent iterations per round (paper: 5).
    iterations: int = 5
    #: Learning rate of Eq. 10 (paper: 10).
    learning_rate: float = 10.0
    #: Optimizer: "sgd" (the paper's choice) or "adam" (ablation only).
    optimizer: str = "sgd"
    #: Standard deviation of the Gaussian initialisation of the soft inputs V.
    init_scale: float = 1.0
    #: Random seed for initialisation and unconstrained-input sampling.
    seed: Optional[int] = 0
    #: Execution device (vectorised "gpu-sim" or per-sample "cpu" loop).
    device: Device = field(default_factory=lambda: Device(DeviceKind.GPU_SIM))
    #: Maximum number of sampling rounds when a target solution count is requested.
    max_rounds: int = 64
    #: Stop early after this many consecutive rounds that add no new unique solution
    #: (the solution space is likely exhausted).  None disables the check.
    stall_rounds: Optional[int] = 4
    #: Wall-clock budget in seconds (None = unlimited); checked between rounds
    #: and, inside a GD round, between device chunks and iterations, so a
    #: long round overshoots the budget by at most one iteration (model-less
    #: instances sample a round as one vectorised step, their overshoot is
    #: that single step).
    timeout_seconds: Optional[float] = None
    #: Array-backend spec ("numpy", "numpy:float64" or "numpy:float32")
    #: selecting the float dtype of the sampler's learning arrays.  ``None``
    #: falls back to the process default (``REPRO_ARRAY_BACKEND`` env or
    #: "numpy") — precedence: environment < config < CLI (the CLI writes
    #: this field, so it wins).
    array_backend: Optional[str] = None
    #: Persistent artifact-store directory (:mod:`repro.store`) consulted by
    #: :func:`repro.core.pipeline.sample_cnf` before running the CNF->circuit
    #: transform, and populated after a cold build.  ``None`` defers to the
    #: ``REPRO_STORE_DIR`` environment variable (off when unset); ``"off"``
    #: is explicitly off — precedence: environment < config < CLI (the CLI
    #: writes this field, so ``--store-dir`` wins).  The library default is
    #: *off*: enable it for workloads that resample the same formulas across
    #: processes or runs.
    store_dir: Optional[str] = None
    #: Telemetry spec (:mod:`repro.obs`): ``"off"`` forces tracing off,
    #: ``"mem"``/``"on"`` enable the in-memory span ring, any other string is
    #: a JSONL trace-file path.  ``None`` defers to the ``REPRO_TRACE``
    #: environment variable (off when unset) — precedence: environment <
    #: config < CLI (the CLI writes this field, so ``--trace`` wins).
    #: Metrics counters are always live regardless of this spec.
    telemetry: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive("batch_size", self.batch_size)
        check_positive("iterations", self.iterations)
        check_positive("learning_rate", self.learning_rate)
        check_positive("max_rounds", self.max_rounds)
        check_positive("init_scale", self.init_scale)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")
        if self.stall_rounds is not None and self.stall_rounds <= 0:
            raise ValueError("stall_rounds must be positive or None")
        if self.array_backend is not None:
            array_dtype(self.array_backend)

    def float_dtype(self) -> np.dtype:
        """The float dtype the sampler's learning arrays use.

        Precedence (weakest first): the ``REPRO_ARRAY_BACKEND`` environment
        variable, else ``"numpy"``; then ``array_backend`` (which the CLI
        flag ``--array-backend`` writes, so the CLI wins).
        """
        return array_dtype(self.array_backend)

    def with_(self, **overrides) -> "SamplerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls, batch_size: int = 2048, **overrides) -> "SamplerConfig":
        """The hyper-parameters reported in the paper (lr=10, 5 iterations, SGD)."""
        return cls(
            batch_size=batch_size,
            iterations=5,
            learning_rate=10.0,
            optimizer="sgd",
            **overrides,
        )
