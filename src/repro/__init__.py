"""High-Throughput SAT Sampling — reproduction library.

Public API surface: the most common entry points are re-exported here.

* :func:`repro.sample_cnf` — end-to-end DIMACS/CNF -> transformation -> GD sampling
* :func:`repro.transform_cnf` — Algorithm 1 only (CNF -> multi-level function)
* :class:`repro.GradientSATSampler` — the paper's sampler
* :class:`repro.SamplerConfig` — hyper-parameters (lr=10, 5 iterations, ...)
* :mod:`repro.engine` — the compiled levelized execution engine: the one
  evaluation path and the one gradient-descent loop of the differentiable
  circuit core
* learning runs in ``float32`` on NumPy arrays, with no dtype option; the
  ``float64`` reference lives in the test oracles
* :func:`repro.clear_caches` — drop every memoised compiled artifact
* :mod:`repro.native` — the on-demand C tier for the engine's hot loops,
  used exactly when it builds (``REPRO_NATIVE=off`` switches it off for the
  whole process)
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

__version__ = "1.0.0"


def clear_caches() -> None:
    """Drop every memoised compiled artifact in the process.

    Clears the per-circuit compiled-program memos of the engine, the
    per-formula CNF evaluation plans and the transform/boolalg memos.  Mutating a circuit or formula
    already invalidates its own memos; this is the explicit hook for
    long-lived processes that want to release memory.
    """
    from repro.cnf import kernel as cnf_kernel
    from repro.core.transform import clear_transform_caches
    from repro.engine import compiler as engine_compiler

    engine_compiler.clear_program_caches()
    cnf_kernel.clear_plan_caches()
    clear_transform_caches()


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
    "clear_caches",
    "__version__",
]
