"""Tests for the four CNF-level sampler baselines."""

import numpy as np
import pytest

from repro.baselines import (
    CMSGenStyleSampler,
    DiffSamplerStyleSampler,
    QuickSamplerStyleSampler,
    UniGenStyleSampler,
)
from repro.baselines.base import SamplerOutput
from repro.baselines.dpll import DPLLSolver
from repro.cnf.formula import CNF
from tests.corpus.generators import planted_ksat

ALL_SAMPLERS = [
    CMSGenStyleSampler,
    UniGenStyleSampler,
    QuickSamplerStyleSampler,
    DiffSamplerStyleSampler,
]


@pytest.fixture(scope="module")
def medium_formula():
    return planted_ksat(25, 80, seed=11)


class TestCommonBehaviour:
    @pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
    def test_solutions_are_valid_and_unique(self, sampler_class, medium_formula):
        sampler = sampler_class(seed=0)
        output = sampler.sample(medium_formula, num_solutions=20, timeout_seconds=30)
        assert isinstance(output, SamplerOutput)
        matrix = output.solution_matrix()
        assert output.num_unique == matrix.shape[0]
        if matrix.shape[0]:
            assert medium_formula.evaluate_batch(matrix).all()
            packed = {row.tobytes() for row in np.packbits(matrix, axis=1)}
            assert len(packed) == matrix.shape[0]

    @pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
    def test_reaches_target_on_easy_instance(self, sampler_class, medium_formula):
        output = sampler_class(seed=1).sample(
            medium_formula, num_solutions=10, timeout_seconds=30
        )
        assert output.num_unique >= 10

    @pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
    def test_throughput_positive(self, sampler_class, medium_formula):
        output = sampler_class(seed=2).sample(
            medium_formula, num_solutions=5, timeout_seconds=30
        )
        assert output.throughput > 0

    @pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
    def test_fig1_sampling(self, sampler_class, fig1_formula):
        output = sampler_class(seed=0).sample(
            fig1_formula, num_solutions=10, timeout_seconds=30
        )
        assert output.num_unique > 0
        assert fig1_formula.evaluate_batch(output.solution_matrix()).all()

    @pytest.mark.parametrize("sampler_class", ALL_SAMPLERS)
    def test_unsat_instance_returns_empty(self, sampler_class, tiny_unsat_formula):
        output = sampler_class(seed=0).sample(
            tiny_unsat_formula, num_solutions=5, timeout_seconds=10
        )
        assert output.num_unique == 0


class TestCMSGenStyle:
    def test_randomised_runs_produce_diverse_solutions(self, medium_formula):
        output = CMSGenStyleSampler(seed=3).sample(medium_formula, num_solutions=15, timeout_seconds=30)
        matrix = output.solution_matrix()
        assert matrix.shape[0] >= 10
        # Diversity: not all solutions agree on every variable.
        assert (matrix.std(axis=0) > 0).any()


class TestUniGenStyle:
    def test_hash_count_adapts(self, medium_formula):
        sampler = UniGenStyleSampler(seed=4, initial_hashes=6, pivot=8)
        output = sampler.sample(medium_formula, num_solutions=8, timeout_seconds=30)
        assert "final_hash_count" in output.extra
        assert output.num_unique > 0

    def test_xor_encoding_preserves_original_solutions(self, tiny_sat_formula):
        sampler = UniGenStyleSampler(seed=0)
        hashed = sampler._hashed_formula(tiny_sat_formula, np.random.default_rng(0), 1)
        # Every solution of the hashed formula must project to a solution of the original.
        for model in DPLLSolver(hashed).enumerate_models(limit=64):
            projected = model[: tiny_sat_formula.num_variables]
            assert tiny_sat_formula.evaluate_batch(projected[None, :])[0]


class TestQuickSamplerStyle:
    def test_mutation_count_recorded(self, medium_formula):
        output = QuickSamplerStyleSampler(seed=5, max_mutations=16).sample(
            medium_formula, num_solutions=10, timeout_seconds=30
        )
        assert output.extra["num_mutations"] >= 0
        assert output.num_unique >= 1


class TestDiffSamplerStyle:
    def test_loss_decreases_enough_to_find_solutions(self, medium_formula):
        output = DiffSamplerStyleSampler(seed=6, batch_size=64, iterations=30).sample(
            medium_formula, num_solutions=10, timeout_seconds=30
        )
        assert output.num_unique >= 10

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DiffSamplerStyleSampler(batch_size=0)

    def test_gradient_matches_finite_difference(self, tiny_sat_formula):
        sampler = DiffSamplerStyleSampler(seed=0)
        variable_index, positive, mask = sampler._pad_clauses(tiny_sat_formula)
        rng = np.random.default_rng(0)
        probabilities = rng.uniform(0.2, 0.8, size=(1, tiny_sat_formula.num_variables))
        _, grad = sampler._loss_and_grad(probabilities, variable_index, positive, mask)
        epsilon = 1e-6
        for column in range(tiny_sat_formula.num_variables):
            plus = probabilities.copy()
            minus = probabilities.copy()
            plus[0, column] += epsilon
            minus[0, column] -= epsilon
            loss_plus, _ = sampler._loss_and_grad(plus, variable_index, positive, mask)
            loss_minus, _ = sampler._loss_and_grad(minus, variable_index, positive, mask)
            numeric = (loss_plus[0] - loss_minus[0]) / (2 * epsilon)
            assert np.isclose(grad[0, column], numeric, atol=1e-4)
