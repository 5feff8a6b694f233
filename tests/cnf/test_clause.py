"""A clause is an ``int`` tuple: a row of a formula's CSR arrays, or an
entry of a :class:`~repro.cnf.delta.ClauseDelta`."""

import numpy as np
import pytest

from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from tests.oracles.cnf import clause_evaluate_reference


class TestLiteralHelpers:
    def test_zero_rejected(self):
        # A lone literal is refused as 0 wherever one enters: an assumption,
        # or an entry of the CSR literal array.
        with pytest.raises(ValueError, match="0 is not a valid assumption literal"):
            ClauseDelta(assume=[3, 0])
        with pytest.raises(ValueError, match="0 is not a valid literal"):
            CNF.from_csr(np.array([1, 0]), np.array([0, 2]))


class TestClauseConstruction:
    def test_duplicates_removed(self):
        assert CNF([[1, 1, -2]]).clauses == ((1, -2),)
        assert ClauseDelta(add=[[1, 1, -2]], retract=[[-2, 1, -2]]).add == ((1, -2),)
        assert ClauseDelta(retract=[[-2, 1, -2]]).retract == ((-2, 1),)

    def test_zero_literal_rejected(self):
        for build in (
            lambda: CNF([[1, 0, 2]]),
            lambda: ClauseDelta(add=[[1, 0, 2]]),
            lambda: ClauseDelta(retract=[[0]]),
            lambda: ClauseDelta.from_dict({"add": [[3, 0]]}),
        ):
            with pytest.raises(ValueError, match="0 is not a valid literal"):
                build()

    def test_empty_clause(self):
        formula = CNF([[]])
        assert formula.clauses == ((),)
        assert len(formula.clauses[0]) == 0
        assert ClauseDelta(add=[[]]).add == ((),)

    def test_immutability(self):
        formula = CNF([[1, -2], [3]])
        assert all(type(clause) is tuple for clause in formula.clauses)
        assert all(type(literal) is int for clause in formula for literal in clause)
        with pytest.raises(ValueError):
            formula.literals[0] = 2
        delta = ClauseDelta(add=[np.array([4, -5])])
        assert delta.add == ((4, -5),) and type(delta.add[0][0]) is int


class TestClauseProperties:
    def test_contains(self):
        (clause,) = CNF([[1, -2]]).clauses
        assert 1 in clause
        assert -2 in clause
        assert 2 not in clause


class TestClauseEvaluation:
    def test_evaluate_complete(self):
        (clause,) = CNF([[1, -2]]).clauses
        assert clause_evaluate_reference(clause, {1: True, 2: True})
        assert clause_evaluate_reference(clause, {1: False, 2: False})
        assert not clause_evaluate_reference(clause, {1: False, 2: True})


class TestClauseIdentity:
    def test_equality_keeps_order_retraction_ignores_it(self):
        # Literal order is part of a clause's identity, as it is of the
        # formula signature; a retraction still matches the literal set.
        assert CNF([[1, 2]]) != CNF([[2, 1]])
        assert ClauseDelta(add=[[1, 2]]) != ClauseDelta(add=[[2, 1]])
        assert CNF([[1, 2], [3]]).with_delta(ClauseDelta(retract=[[2, 1]])) == CNF(
            [[3]], num_variables=2
        )
