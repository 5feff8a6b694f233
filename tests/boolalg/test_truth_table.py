"""Tests for truth-table semantics (repro.boolalg.truth_table)."""

import numpy as np
import pytest

from repro.boolalg.expr import And, FALSE, Not, Or, TRUE, Var, Xor
from repro.boolalg.truth_table import (
    count_satisfying,
    equivalent,
    is_complement,
    is_contradiction,
    is_tautology,
    minterms,
    satisfying_assignments,
    truth_table,
)


class TestTruthTable:
    def test_and_table(self):
        table = truth_table(And(Var("a"), Var("b")), over=["a", "b"])
        # Row index bit 0 = a, bit 1 = b; only row 3 (a=1, b=1) is true.
        assert table.tolist() == [False, False, False, True]

    def test_or_table(self):
        table = truth_table(Or(Var("a"), Var("b")), over=["a", "b"])
        assert table.tolist() == [False, True, True, True]

    def test_constant_table(self):
        assert truth_table(TRUE).tolist() == [True]
        assert truth_table(FALSE).tolist() == [False]

    def test_refuses_wide_support(self):
        wide = Or(*(Var(f"v{i}") for i in range(25)))
        with pytest.raises(ValueError):
            truth_table(wide, max_vars=20)

    def test_explicit_variable_order(self):
        expr = Var("a")
        table = truth_table(expr, over=["b", "a"])
        # bit 0 = b, bit 1 = a -> rows 2 and 3 are true.
        assert table.tolist() == [False, False, True, True]


class TestEquivalence:
    def test_commutativity(self):
        a, b = Var("a"), Var("b")
        assert equivalent(And(a, b), And(b, a))

    def test_de_morgan(self):
        a, b = Var("a"), Var("b")
        assert equivalent(Not(And(a, b)), Or(Not(a), Not(b)))

    def test_not_equivalent(self):
        a, b = Var("a"), Var("b")
        assert not equivalent(And(a, b), Or(a, b))

    def test_mixed_support(self):
        a, b = Var("a"), Var("b")
        assert not equivalent(a, And(a, b))

    def test_wide_support_refused(self):
        names = [f"v{i}" for i in range(24)]
        big_or = Or(*(Var(n) for n in names))
        same = Or(*(Var(n) for n in reversed(names)))
        with pytest.raises(ValueError, match="24 variables"):
            equivalent(big_or, same, max_vars=10)


class TestComplement:
    def test_simple_complement(self):
        a = Var("a")
        assert is_complement(a, Not(a))

    def test_de_morgan_complement(self):
        a, b = Var("a"), Var("b")
        assert is_complement(And(a, b), Or(Not(a), Not(b)))

    def test_paper_x5_example(self):
        """The x5 walk-through of Section III-A: the two derived expressions are complements."""
        x4, x107, x108 = Var("x4"), Var("x107"), Var("x108")
        positive = Or(And(x107, x4), And(x108, Not(x4)))
        negative = Or(And(Not(x107), x4), And(Not(x108), Not(x4)))
        assert is_complement(positive, negative)

    def test_non_complement(self):
        a, b = Var("a"), Var("b")
        assert not is_complement(And(a, b), Or(a, b))

    def test_wide_support_refused(self):
        names = [f"v{i}" for i in range(22)]
        expr = Or(*(Var(n) for n in names))
        complement = And(*(Not(Var(n)) for n in names))
        with pytest.raises(ValueError, match="22 variables"):
            is_complement(expr, complement, max_vars=8)


class TestConstancy:
    def test_tautology(self):
        a = Var("a")
        assert is_tautology(Or(a, Not(a)))
        assert not is_tautology(a)

    def test_contradiction(self):
        a = Var("a")
        assert is_contradiction(And(a, Not(a)))
        assert not is_contradiction(a)

    def test_constants(self):
        assert is_tautology(TRUE)
        assert is_contradiction(FALSE)

    @pytest.mark.parametrize("query", [is_tautology, is_contradiction])
    def test_wide_support_refused(self, query):
        expr = Or(*(Var(f"v{i}") for i in range(6)))
        with pytest.raises(ValueError, match="6 variables"):
            query(expr, max_vars=5)


class TestCounting:
    def test_count_satisfying(self):
        a, b = Var("a"), Var("b")
        assert count_satisfying(And(a, b)) == 1
        assert count_satisfying(Or(a, b)) == 3
        assert count_satisfying(Xor(a, b)) == 2

    def test_count_over_wider_domain(self):
        a = Var("a")
        assert count_satisfying(a, over=["a", "b"]) == 2

    def test_satisfying_assignments(self):
        a, b = Var("a"), Var("b")
        models = satisfying_assignments(And(a, Not(b)))
        assert models == [{"a": True, "b": False}]

    def test_minterms(self):
        a, b = Var("a"), Var("b")
        on_set, order = minterms(And(a, b))
        assert order == ["a", "b"]
        assert on_set == [3]
