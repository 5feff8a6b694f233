"""Tests for Quine-McCluskey minimization (repro.boolalg.quine_mccluskey)."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolalg.expr import And, FALSE, Not, Or, TRUE, Var
from repro.boolalg.quine_mccluskey import (
    minimize_expr,
    minimize_minterms,
    prime_implicants,
)
from repro.boolalg.truth_table import equivalent, minterms as expr_minterms
from tests.oracles.quine_mccluskey import prime_implicants_reference


class TestPrimeImplicants:
    def test_full_cover_single_implicant(self):
        primes = prime_implicants([0, 1, 2, 3], num_vars=2)
        assert primes == [()]  # the empty implicant covers everything

    def test_classic_example(self):
        # f(a,b,c) with on-set {0,1,2,5,6,7}: known to have prime implicants
        primes = prime_implicants([0, 1, 2, 5, 6, 7], num_vars=3)
        assert len(primes) >= 4

    def test_single_minterm(self):
        primes = prime_implicants([5], num_vars=3)
        assert primes == [((0, 1), (1, 0), (2, 1))]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=2**n)
            )
        )
    )
    def test_matches_the_pairwise_tabulation(self, case):
        num_vars, on_set = case
        assert prime_implicants(on_set, num_vars) == prime_implicants_reference(
            on_set, num_vars
        )

    def test_ten_variable_group_simplifies_in_seconds(self):
        # 40 positive clauses of 2-4 literals sharing variable 1, over 10
        # variables: trying every pair of implicants took about a minute.
        from repro.boolalg import clear_caches
        from repro.boolalg.simplify import simplify
        from repro.core.extraction import group_to_constraint_expr

        rng = random.Random(0)
        groups = set()
        while len(groups) < 40:
            groups.add(frozenset([1, *rng.sample(range(2, 11), rng.randint(1, 3))]))
        group = [tuple(sorted(clause)) for clause in sorted(groups, key=sorted)]
        expr = group_to_constraint_expr(group)
        assert len(expr.support()) == 10
        clear_caches()
        start = time.perf_counter()
        simplified = simplify(expr)
        assert time.perf_counter() - start < 5.0
        assert equivalent(simplified, expr)


class TestMinimizeMinterms:
    def test_empty_on_set(self):
        assert minimize_minterms([], ["a", "b"]) == FALSE

    def test_full_on_set(self):
        assert minimize_minterms([0, 1, 2, 3], ["a", "b"]) == TRUE

    def test_single_variable_projection(self):
        # On-set where the function equals variable b (bit 1).
        result = minimize_minterms([2, 3], ["a", "b"])
        assert result == Var("b")

    def test_equivalence_preserved(self):
        names = ["a", "b", "c"]
        on_set = [1, 3, 5, 6]
        result = minimize_minterms(on_set, names)
        recovered, _ = expr_minterms(result, over=names)
        assert recovered == sorted(on_set)


class TestMinimizeExpr:
    def test_absorbs_redundant_terms(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        expr = Or(And(a, b), And(a, b, c))
        assert minimize_expr(expr) == And(a, b)

    def test_no_support_returned_unchanged(self):
        assert minimize_expr(TRUE) == TRUE

    def test_wide_support_rejected(self):
        wide = Or(*(Var(f"v{i}") for i in range(13)))
        with pytest.raises(ValueError):
            minimize_expr(wide, max_vars=12)

    def test_equivalence_on_random_style_functions(self):
        a, b, c, d = (Var(n) for n in "abcd")
        expressions = [
            Or(And(a, b), And(Not(a), c)),
            Or(And(a, b, c), And(a, b, d), And(a, b, Not(c), Not(d))),
            And(Or(a, b), Or(Not(a), c)),
        ]
        for expr in expressions:
            assert equivalent(minimize_expr(expr), expr)

    def test_result_is_two_level(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        result = minimize_expr(Or(And(a, Or(b, c)), And(Not(a), b)))
        # A sum-of-products has depth at most 2 (Or of Ands of literals).
        assert result.depth() <= 2
