"""Shared fixtures: small formulas, circuits and the paper's Fig. 1 example."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boolalg.expr import And, Not, Or, Var, Xor
from repro.circuit.builder import CircuitBuilder
from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF

#: The annotated CNF of the paper's Fig. 1(a): an inverter/buffer chain feeding a
#: mux (unconstrained path) and a second chain feeding a mux whose output is
#: constrained to 1 (constrained path).
FIG1_DIMACS = """\
p cnf 14 21
c x2(x1) = not x1
-1 -2 0
1 2 0
c x3(x2) = x2
-2 3 0
2 -3 0
c x4(x3) = x3
-3 4 0
3 -4 0
c x5 = (x4 and x11) or (not x4 and x12)
-4 -11 5 0
-4 11 -5 0
4 -12 5 0
4 12 -5 0
c x7(x6) = x6
-6 7 0
6 -7 0
c x8(x7) = x7
-7 8 0
7 -8 0
c x9(x8) = not x8
-8 -9 0
8 9 0
c x10 = (x9 and x13) or (not x9 and x14)
-9 -13 10 0
-9 13 -10 0
9 -14 10 0
9 14 -10 0
c x10 = 1
10 0
"""


@pytest.fixture
def fig1_formula() -> CNF:
    """The paper's Fig. 1 example CNF."""
    return parse_dimacs(FIG1_DIMACS, name="fig1")


@pytest.fixture
def tiny_sat_formula() -> CNF:
    """A tiny satisfiable formula with a known model count (exactly 4 models).

    (x1 | x2) & (~x1 | x3): models over {x1,x2,x3}:
    x1=0: x2=1, x3 free -> 2;  x1=1: x3=1, x2 free -> 2.
    """
    return CNF([[1, 2], [-1, 3]], num_variables=3, name="tiny-sat")


@pytest.fixture
def tiny_unsat_formula() -> CNF:
    """A minimal unsatisfiable formula."""
    return CNF([[1], [-1]], num_variables=1, name="tiny-unsat")


@pytest.fixture
def xor_chain_formula() -> CNF:
    """x1 xor x2 = 1, encoded with the XOR signature on an auxiliary output x3 = 1."""
    return CNF(
        [[-3, 1, 2], [-3, -1, -2], [3, 1, -2], [3, -1, 2], [3]],
        num_variables=3,
        name="xor-chain",
    )


@pytest.fixture
def small_circuit():
    """A small two-output circuit: f = (a & b) | c,  g = a ^ c."""
    builder = CircuitBuilder("small")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    f = builder.or_(builder.and_(a, b), c, name="f")
    g = builder.xor_(a, c, name="g")
    builder.output(f)
    builder.output(g)
    return builder.circuit


@pytest.fixture
def expr_abc():
    """Three expression variables used across boolalg tests."""
    return Var("a"), Var("b"), Var("c")


@pytest.fixture(params=["engine", "interpreter"])
def learner(request, monkeypatch):
    """Which gradient-descent loop the samplers run in this test.

    ``"engine"`` is the library's compiled loop; ``"interpreter"`` installs
    the reference oracle's per-gate learning loops
    (:func:`tests.oracles.interpreter.use_interpreter`), so one test body
    checks that the oracle is a faithful drop-in for the engine.
    """
    if request.param == "interpreter":
        from tests.oracles.interpreter import use_interpreter

        use_interpreter(monkeypatch)
    return request.param


@pytest.fixture
def rng():
    """A deterministic NumPy generator for tests."""
    return np.random.default_rng(12345)


_REGISTRY_TRANSFORMS: dict = {}


def registry_instance(name: str):
    """``(formula, transform)`` of a registry instance, built once per test run."""
    if name not in _REGISTRY_TRANSFORMS:
        from repro.core.transform import transform_cnf
        from repro.instances.registry import get_instance

        formula = get_instance(name).build_cnf()
        _REGISTRY_TRANSFORMS[name] = (formula, transform_cnf(formula))
    return _REGISTRY_TRANSFORMS[name]


def all_assignments(num_variables: int) -> np.ndarray:
    """All 2**n boolean assignments as a matrix (helper importable from tests)."""
    rows = 1 << num_variables
    matrix = np.zeros((rows, num_variables), dtype=bool)
    for row in range(rows):
        for column in range(num_variables):
            matrix[row, column] = bool((row >> column) & 1)
    return matrix
