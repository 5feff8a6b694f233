"""Tests for the CDCL solver (repro.baselines.cdcl)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cdcl import CDCLSolver, _luby
from repro.baselines.dpll import DPLLSolver
from repro.cnf.formula import CNF
from tests.corpus.generators import planted_ksat, random_ksat


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(9)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


class TestBasicSolving:
    def test_sat(self, tiny_sat_formula):
        result = CDCLSolver(tiny_sat_formula, seed=0).solve()
        assert result.status == "sat"
        assert tiny_sat_formula.evaluate_batch(result.assignment[None, :])[0]

    def test_unsat(self, tiny_unsat_formula):
        assert CDCLSolver(tiny_unsat_formula, seed=0).solve().status == "unsat"

    def test_empty_clause(self):
        formula = CNF([[]], num_variables=1)
        assert CDCLSolver(formula).solve().status == "unsat"

    def test_fig1(self, fig1_formula):
        result = CDCLSolver(fig1_formula, seed=0).solve()
        assert result.status == "sat"
        assert fig1_formula.evaluate_batch(result.assignment[None, :])[0]

    def test_unit_clauses_propagated(self):
        formula = CNF([[1], [-1, 2], [-2, 3]], num_variables=3)
        result = CDCLSolver(formula, seed=0).solve()
        assert result.status == "sat"
        assert result.assignment.tolist() == [True, True, True]

    def test_pigeonhole_unsat(self):
        """3 pigeons in 2 holes is unsatisfiable and needs real conflict analysis."""
        # Variables p_{i,j} = pigeon i in hole j, numbered 1..6.
        def var(i, j):
            return i * 2 + j + 1
        clauses = []
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for j in range(2):
            for i in range(3):
                for k in range(i + 1, 3):
                    clauses.append([-var(i, j), -var(k, j)])
        formula = CNF(clauses, num_variables=6)
        result = CDCLSolver(formula, seed=0).solve()
        assert result.status == "unsat"
        assert result.conflicts > 0

    def test_statistics_recorded(self):
        formula = planted_ksat(30, 120, seed=1)
        result = CDCLSolver(formula, seed=1).solve()
        assert result.status == "sat"
        assert result.propagations > 0


class TestAssumptionsAndBudget:
    def test_assumptions_respected(self, tiny_sat_formula):
        result = CDCLSolver(tiny_sat_formula, seed=0).solve(assumptions=[-1, 2])
        assert result.status == "sat"
        assert not result.assignment[0]
        assert result.assignment[1]

    def test_conflicting_assumptions(self, tiny_sat_formula):
        result = CDCLSolver(tiny_sat_formula, seed=0).solve(assumptions=[1, -1])
        assert result.status == "unsat"

    def test_conflict_budget_returns_unknown(self):
        # A formula hard enough to require at least one conflict.
        def var(i, j):
            return i * 3 + j + 1
        clauses = []
        for i in range(4):
            clauses.append([var(i, j) for j in range(3)])
        for j in range(3):
            for i in range(4):
                for k in range(i + 1, 4):
                    clauses.append([-var(i, j), -var(k, j)])
        formula = CNF(clauses, num_variables=12)
        result = CDCLSolver(formula, seed=0, max_conflicts=1).solve()
        assert result.status in ("unknown", "unsat")

    def test_repeated_solves_are_consistent(self, fig1_formula):
        solver = CDCLSolver(fig1_formula, seed=0, random_polarity=True)
        for _ in range(5):
            result = solver.solve()
            assert result.status == "sat"
            assert fig1_formula.evaluate_batch(result.assignment[None, :])[0]


class TestAgainstDPLL:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_dpll_on_random_3sat(self, seed):
        formula = random_ksat(12, 50, k=3, seed=seed)
        cdcl_result = CDCLSolver(formula, seed=seed).solve()
        dpll_model = DPLLSolver(formula).solve()
        assert (cdcl_result.status == "sat") == (dpll_model is not None)
        if cdcl_result.status == "sat":
            assert formula.evaluate_batch(cdcl_result.assignment[None, :])[0]

    def test_random_polarity_still_sound(self):
        for seed in range(5):
            formula = planted_ksat(25, 90, seed=seed)
            result = CDCLSolver(
                formula, seed=seed, random_polarity=True, random_decision_rate=0.5
            ).solve()
            assert result.status == "sat"
            assert formula.evaluate_batch(result.assignment[None, :])[0]
