"""CNF substrate: literals, clauses, formulas, DIMACS I/O and preprocessing.

All samplers in this library (the paper's gradient-based sampler and the
CNF-level baselines) consume :class:`~repro.cnf.formula.CNF` objects, and the
validity of every sampled solution is always checked against the *original*
CNF — never against the transformed circuit — exactly as the paper does.
"""

from repro.cnf.clause import Clause, literal_variable, literal_is_positive, negate_literal
from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.cnf.kernel import (
    CNFEvalPlan,
    compile_evaluation_plan,
    extend_evaluation_plan,
)
from repro.cnf.assignment import Assignment
from repro.cnf.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs, write_dimacs_file
from repro.cnf.simplify import unit_propagate, pure_literal_eliminate, simplify_formula
from repro.cnf.generators import random_ksat, random_horn, planted_ksat

__all__ = [
    "Clause",
    "ClauseDelta",
    "CNF",
    "CNFEvalPlan",
    "compile_evaluation_plan",
    "extend_evaluation_plan",
    "Assignment",
    "literal_variable",
    "literal_is_positive",
    "negate_literal",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "write_dimacs_file",
    "unit_propagate",
    "pure_literal_eliminate",
    "simplify_formula",
    "random_ksat",
    "random_horn",
    "planted_ksat",
]
