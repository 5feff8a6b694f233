"""Tests for the ROBDD reference oracle (tests.oracles.bdd)."""

import pytest

from tests.oracles.bdd import BDD, FALSE_NODE, TRUE_NODE
from repro.boolalg.expr import And, Not, Or, Var, Xor
from repro.boolalg.truth_table import count_satisfying


class TestConstruction:
    def test_terminals(self):
        manager = BDD(["a"])
        assert manager.true == TRUE_NODE
        assert manager.false == FALSE_NODE

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            BDD(["a", "a"])

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError):
            BDD(["a"]).var("z")

    def test_canonicity_of_same_function(self):
        manager = BDD(["a", "b"])
        left = manager.apply_and(manager.var("a"), manager.var("b"))
        right = manager.apply_and(manager.var("b"), manager.var("a"))
        assert left == right

    def test_reduction_collapses_redundant_tests(self):
        manager = BDD(["a", "b"])
        a = manager.var("a")
        # a OR (a AND b) == a: the BDD must literally be the node for a.
        assert manager.apply_or(a, manager.apply_and(a, manager.var("b"))) == a


class TestOperations:
    def test_and_or_terminal_cases(self):
        manager = BDD(["a"])
        a = manager.var("a")
        assert manager.apply_and(a, manager.false) == manager.false
        assert manager.apply_and(a, manager.true) == a
        assert manager.apply_or(a, manager.true) == manager.true
        assert manager.apply_or(a, manager.false) == a

    def test_negation_involution(self):
        manager = BDD(["a", "b"])
        node = manager.apply_or(manager.var("a"), manager.var("b"))
        assert manager.negate(manager.negate(node)) == node

    def test_complement_pair(self):
        manager = BDD(["a", "b"])
        node = manager.apply_and(manager.var("a"), manager.var("b"))
        complement = manager.apply_or(
            manager.negate(manager.var("a")), manager.negate(manager.var("b"))
        )
        assert manager.negate(node) == complement

    def test_xor(self):
        manager = BDD(["a", "b"])
        node = manager.apply_xor(manager.var("a"), manager.var("b"))
        assert manager.evaluate(node, {"a": True, "b": False})
        assert not manager.evaluate(node, {"a": True, "b": True})

    def test_ite(self):
        manager = BDD(["c", "t", "e"])
        node = manager.ite(manager.var("c"), manager.var("t"), manager.var("e"))
        assert manager.evaluate(node, {"c": True, "t": True, "e": False})
        assert not manager.evaluate(node, {"c": False, "t": True, "e": False})


class TestFromExpr:
    def test_matches_truth_table_semantics(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        expressions = [
            And(a, b),
            Or(a, Not(b), c),
            Xor(a, b, c),
            Or(And(a, b), And(Not(a), c)),
        ]
        manager = BDD(["a", "b", "c"])
        for expr in expressions:
            node = manager.from_expr(expr)
            for value_a in (False, True):
                for value_b in (False, True):
                    for value_c in (False, True):
                        assignment = {"a": value_a, "b": value_b, "c": value_c}
                        assert manager.evaluate(node, assignment) == expr.evaluate(assignment)

    def test_equivalent_expressions_share_node(self):
        a, b = Var("a"), Var("b")
        manager = BDD(["a", "b"])
        assert manager.from_expr(Not(And(a, b))) == manager.from_expr(Or(Not(a), Not(b)))


class TestCountingAndSupport:
    def test_count_solutions_matches_truth_table(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        manager = BDD(["a", "b", "c"])
        for expr in (And(a, b), Or(a, b, c), Xor(a, b)):
            node = manager.from_expr(expr)
            assert manager.count_solutions(node) == count_satisfying(expr, over=["a", "b", "c"])

    def test_count_terminal_nodes(self):
        manager = BDD(["a", "b"])
        assert manager.count_solutions(manager.true) == 4
        assert manager.count_solutions(manager.false) == 0

    def test_support_of(self):
        a, c = Var("a"), Var("c")
        manager = BDD(["a", "b", "c"])
        node = manager.from_expr(And(a, c))
        assert manager.support_of(node) == ["a", "c"]
