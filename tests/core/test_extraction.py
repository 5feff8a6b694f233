"""Tests for Boolean-expression extraction from clause groups (repro.core.extraction)."""

import pytest

from repro.boolalg.expr import And, FALSE, Not, Or, TRUE, Var
from repro.boolalg.truth_table import equivalent
from repro.core.extraction import (
    clause_to_expr,
    expression_for_literal,
    find_boolean_expression,
    group_to_constraint_expr,
    index_of_variable,
    literal_to_expr,
    variable_name,
)


class TestNaming:
    def test_variable_name_roundtrip(self):
        assert variable_name(42) == "x42"
        assert index_of_variable("x42") == 42

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            variable_name(0)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            index_of_variable("y3")

    def test_literal_to_expr(self):
        assert literal_to_expr(3) == Var("x3")
        assert literal_to_expr(-3) == Not(Var("x3"))


class TestClauseToExpr:
    def test_disjunction(self):
        expr = clause_to_expr((1, -2))
        assert equivalent(expr, Or(Var("x1"), Not(Var("x2"))))

    def test_empty_clause_is_false(self):
        assert clause_to_expr(()) == FALSE


class TestExpressionForLiteral:
    def test_inverter_signature(self):
        """Eq. 1: (f | x) & (~f | ~x) -> f = ~x."""
        clauses = [(2, 1), (-2, -1)]
        expr = expression_for_literal(2, clauses)
        assert equivalent(expr, Not(Var("x1")))

    def test_or_signature(self):
        """Eq. 2: the OR signature yields f = x1 | x2 from the ~f clause."""
        clauses = [(-3, 1, 2), (3, -1), (3, -2)]
        expr = expression_for_literal(3, clauses)
        assert equivalent(expr, Or(Var("x1"), Var("x2")))

    def test_no_matching_clause_gives_true(self):
        assert expression_for_literal(5, [(1, 2)]) == TRUE

    def test_unit_clause_gives_false_for_negation(self):
        # Expression for ~v from the unit clause (v): removing v leaves nothing.
        assert expression_for_literal(-1, [(1,)]) == FALSE


class TestFindBooleanExpression:
    def test_paper_eq5_mux(self):
        """The x5 example from Section III-A (clauses of Eq. 5)."""
        clauses = [
            (-4, -107, 5),
            (-4, 107, -5),
            (4, -108, 5),
            (4, 108, -5),
        ]
        expr = find_boolean_expression(5, clauses)
        assert expr is not None
        reference = Or(And(Var("x107"), Var("x4")), And(Var("x108"), Not(Var("x4"))))
        assert equivalent(expr, reference)

    def test_other_variables_are_rejected(self):
        clauses = [
            (-4, -107, 5),
            (-4, 107, -5),
            (4, -108, 5),
            (4, 108, -5),
        ]
        assert find_boolean_expression(4, clauses) is None
        assert find_boolean_expression(107, clauses) is None

    def test_unit_clause_defines_constant(self):
        expr = find_boolean_expression(10, [(10,)])
        assert expr == TRUE

    def test_negative_unit_clause_defines_constant_false(self):
        expr = find_boolean_expression(10, [(-10,)])
        assert expr == FALSE

    def test_clause_not_mentioning_variable_blocks(self):
        clauses = [(2, 1), (-2, -1), (3, 4)]
        assert find_boolean_expression(2, clauses) is None

    def test_under_specified_group_rejected(self):
        """A bare (x1 | x2) clause defines no variable (the paper's under-specified case)."""
        clauses = [(1, 2)]
        assert find_boolean_expression(1, clauses) is None
        assert find_boolean_expression(2, clauses) is None

    def test_wide_support_refused(self):
        wide = tuple(range(2, 20)) + (-1,)
        assert find_boolean_expression(1, [wide], max_vars=10) is None

    def test_empty_group(self):
        assert find_boolean_expression(1, []) is None

    def test_and_signature(self):
        clauses = [(3, -1, -2), (-3, 1), (-3, 2)]
        expr = find_boolean_expression(3, clauses)
        assert expr is not None
        assert equivalent(expr, And(Var("x1"), Var("x2")))


class TestGroupToConstraintExpr:
    def test_conjunction_of_clauses(self):
        clauses = [(1, 2), (-1, 3)]
        expr = group_to_constraint_expr(clauses)
        reference = And(Or(Var("x1"), Var("x2")), Or(Not(Var("x1")), Var("x3")))
        assert equivalent(expr, reference)
