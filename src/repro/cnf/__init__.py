"""CNF substrate: formulas (CSR arrays), deltas, DIMACS I/O and evaluation.

All samplers in this library (the paper's gradient-based sampler and the
CNF-level baselines) consume :class:`~repro.cnf.formula.CNF` objects, and the
validity of every sampled solution is always checked against the *original*
CNF — never against the transformed circuit — exactly as the paper does.
"""

from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.cnf.kernel import CNFEvalPlan, compile_evaluation_plan
from repro.cnf.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs, write_dimacs_file

__all__ = [
    "ClauseDelta",
    "CNF",
    "CNFEvalPlan",
    "compile_evaluation_plan",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "write_dimacs_file",
]
