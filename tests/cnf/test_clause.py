"""Tests for repro.cnf.clause."""

import pytest

from repro.cnf.clause import Clause, literal_is_positive, literal_variable, negate_literal
from tests.oracles.cnf import clause_evaluate_reference


class TestLiteralHelpers:
    def test_literal_variable(self):
        assert literal_variable(5) == 5
        assert literal_variable(-7) == 7

    def test_literal_is_positive(self):
        assert literal_is_positive(3)
        assert not literal_is_positive(-3)

    def test_negate_literal(self):
        assert negate_literal(4) == -4
        assert negate_literal(-4) == 4

    def test_zero_rejected(self):
        for helper in (literal_variable, literal_is_positive, negate_literal):
            with pytest.raises(ValueError):
                helper(0)


class TestClauseConstruction:
    def test_duplicates_removed(self):
        assert Clause([1, 1, -2]).literals == (1, -2)

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Clause([1, 0, 2])

    def test_empty_clause(self):
        clause = Clause([])
        assert clause.literals == ()
        assert len(clause) == 0

    def test_immutability(self):
        clause = Clause([1])
        with pytest.raises(AttributeError):
            clause._literals = (2,)

    def test_variables_sorted(self):
        assert Clause([-5, 2, -3]).variables == (2, 3, 5)


class TestClauseProperties:
    def test_contains(self):
        clause = Clause([1, -2])
        assert 1 in clause
        assert -2 in clause
        assert 2 not in clause


class TestClauseEvaluation:
    def test_evaluate_complete(self):
        clause = Clause([1, -2])
        assert clause_evaluate_reference(clause, {1: True, 2: True})
        assert clause_evaluate_reference(clause, {1: False, 2: False})
        assert not clause_evaluate_reference(clause, {1: False, 2: True})


class TestClauseTransforms:
    def test_equality_and_hash_ignore_order(self):
        assert Clause([1, 2]) == Clause([2, 1])
        assert hash(Clause([1, 2])) == hash(Clause([2, 1]))
        assert Clause([1, 2]) != Clause([1, -2])
