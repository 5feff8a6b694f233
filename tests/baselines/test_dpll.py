"""Tests for the DPLL solver (repro.baselines.dpll)."""

import numpy as np

from repro.baselines.dpll import DPLLSolver
from repro.cnf.formula import CNF
from tests.corpus.generators import planted_ksat, planted_solution


class TestSolve:
    def test_sat_instance(self, tiny_sat_formula):
        model = DPLLSolver(tiny_sat_formula).solve()
        assert model is not None
        assert tiny_sat_formula.evaluate_batch(model[None, :])[0]

    def test_unsat_instance(self, tiny_unsat_formula):
        assert DPLLSolver(tiny_unsat_formula).solve() is None

    def test_fig1_instance(self, fig1_formula):
        model = DPLLSolver(fig1_formula).solve()
        assert model is not None
        assert fig1_formula.evaluate_batch(model[None, :])[0]

    def test_planted_instances(self):
        for seed in range(3):
            formula = planted_ksat(20, 70, seed=seed)
            model = DPLLSolver(formula).solve()
            assert model is not None
            assert formula.evaluate_batch(model[None, :])[0]

    def test_randomized_solve_still_valid(self, fig1_formula):
        model = DPLLSolver(fig1_formula, seed=3).solve(randomize=True)
        assert model is not None
        assert fig1_formula.evaluate_batch(model[None, :])[0]

    def test_empty_clause_unsat(self):
        formula = CNF([[]], num_variables=1)
        assert DPLLSolver(formula).solve() is None


class TestEnumeration:
    def test_tiny_model_count(self, tiny_sat_formula):
        assert DPLLSolver(tiny_sat_formula).count_models() == 4

    def test_fig1_model_count(self, fig1_formula):
        assert DPLLSolver(fig1_formula).count_models() == 32

    def test_all_enumerated_models_valid_and_distinct(self, tiny_sat_formula):
        models = list(DPLLSolver(tiny_sat_formula).enumerate_models())
        matrix = np.stack(models)
        assert tiny_sat_formula.evaluate_batch(matrix).all()
        assert len({tuple(m.tolist()) for m in models}) == len(models)

    def test_enumeration_limit(self, fig1_formula):
        models = list(DPLLSolver(fig1_formula).enumerate_models(limit=5))
        assert len(models) == 5

    def test_unsat_enumeration_empty(self, tiny_unsat_formula):
        assert DPLLSolver(tiny_unsat_formula).count_models() == 0

    def test_free_variables_expanded(self):
        formula = CNF([[1]], num_variables=3)
        assert DPLLSolver(formula).count_models() == 4
