"""High-Throughput SAT Sampling — reproduction library.

Public API surface: the most common entry points are re-exported here.

* :func:`repro.sample_cnf` — end-to-end DIMACS/CNF -> transformation -> GD sampling
* :func:`repro.transform_cnf` — Algorithm 1 only (CNF -> multi-level function)
* :class:`repro.GradientSATSampler` — the paper's sampler
* :class:`repro.SamplerConfig` — hyper-parameters (lr=10, 5 iterations, ...)
* :mod:`repro.engine` — the compiled levelized execution engine behind the
  differentiable circuit core (``SamplerConfig(backend=...)`` selects it)
* :mod:`repro.xp` — the array-backend layer (NumPy, with a ``float64``
  reference and a ``numpy:float32`` throughput policy;
  ``SamplerConfig(array_backend=...)``, ``REPRO_ARRAY_BACKEND`` or
  ``--array-backend`` selects it)
* :mod:`repro.native` — the on-demand C tier for the hot loops
  (``SamplerConfig(kernel=...)``, ``REPRO_NATIVE`` or ``--kernel`` selects
  ``auto``/``native``/``python``)
* :mod:`repro.baselines` — UniGen/CMSGen/QuickSampler/DiffSampler-style baselines
* :mod:`repro.instances` — synthetic benchmark-instance generators (Table II families)
* :mod:`repro.eval` — throughput harness and table/figure builders
"""

from repro.cnf import CNF, ClauseDelta, parse_dimacs, parse_dimacs_file, write_dimacs
from repro.core import (
    GradientSATSampler,
    PipelineResult,
    SampleResult,
    SamplerConfig,
    SamplingTask,
    SolutionSet,
    TransformResult,
    retransform,
    sample_cnf,
    transform_cnf,
)
from repro.gpu import Device, DeviceKind, get_device
from repro.xp import (
    ArrayBackend,
    active_backend,
    clear_caches,
    get_backend,
    use_backend,
)

__version__ = "1.0.0"

__all__ = [
    "CNF",
    "ClauseDelta",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "GradientSATSampler",
    "PipelineResult",
    "SampleResult",
    "SamplerConfig",
    "SamplingTask",
    "SolutionSet",
    "TransformResult",
    "retransform",
    "sample_cnf",
    "transform_cnf",
    "Device",
    "DeviceKind",
    "get_device",
    "ArrayBackend",
    "active_backend",
    "clear_caches",
    "get_backend",
    "use_backend",
    "__version__",
]
