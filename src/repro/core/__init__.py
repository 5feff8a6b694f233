"""Core contribution of the paper: CNF-to-circuit transformation + GD sampling.

The two halves are:

* :mod:`repro.core.transform` — Algorithm 1: streaming recovery of a
  multi-level, multi-output Boolean function from a CNF, with
  primary-input / intermediate / primary-output classification and
  constrained/unconstrained path analysis;
* :mod:`repro.core.sampler` — the probabilistic relaxation of the recovered
  circuit (Table I), the sigmoid input embedding (Eq. 6), the L2 loss
  (Eq. 8) and the batched gradient-descent sampling loop (Eq. 10), together
  with unique-solution bookkeeping and validation against the original CNF.
"""

from repro.core.config import SamplerConfig
from repro.core.extraction import (
    clause_to_expr,
    expression_for_literal,
    find_boolean_expression,
)
from repro.core.signatures import (
    formula_signature,
    gate_signature_clauses,
    match_gate_signature,
)
from repro.core.task import DEFAULT_TASK, SamplingTask
from repro.core.transform import (
    TransformReplay,
    TransformResult,
    retransform,
    transform_cnf,
)
from repro.core.sampler import GradientSATSampler, SampleResult
from repro.core.solutions import SolutionSet
from repro.core.pipeline import sample_cnf, PipelineResult

__all__ = [
    "SamplerConfig",
    "clause_to_expr",
    "expression_for_literal",
    "find_boolean_expression",
    "match_gate_signature",
    "gate_signature_clauses",
    "formula_signature",
    "DEFAULT_TASK",
    "SamplingTask",
    "TransformReplay",
    "TransformResult",
    "retransform",
    "transform_cnf",
    "GradientSATSampler",
    "SampleResult",
    "SolutionSet",
    "sample_cnf",
    "PipelineResult",
]
