"""Tests for the gradient-descent sampler (repro.core.sampler)."""

import time

import numpy as np
import pytest

from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.transform import transform_cnf


def _small_config(**overrides) -> SamplerConfig:
    base = dict(batch_size=64, seed=0, max_rounds=8)
    base.update(overrides)
    return SamplerConfig(**base)


class TestFig1Sampling:
    def test_all_solutions_found(self, fig1_formula):
        sampler = GradientSATSampler(fig1_formula, config=_small_config(batch_size=256))
        result = sampler.sample(num_solutions=32)
        assert result.num_unique == 32  # the instance has exactly 32 models
        matrix = result.solution_matrix()
        assert fig1_formula.evaluate_batch(matrix).all()

    def test_every_reported_solution_is_valid(self, fig1_formula):
        result = GradientSATSampler(fig1_formula, config=_small_config()).sample(20)
        matrix = result.solution_matrix()
        assert matrix.shape[0] == result.num_unique
        assert fig1_formula.evaluate_batch(matrix).all()

    def test_validity_rate_is_high(self, fig1_formula):
        result = GradientSATSampler(fig1_formula, config=_small_config()).sample(20)
        assert result.validity_rate > 0.8

    def test_deterministic_given_seed(self, fig1_formula):
        first = GradientSATSampler(fig1_formula, config=_small_config()).sample(16)
        second = GradientSATSampler(fig1_formula, config=_small_config()).sample(16)
        assert np.array_equal(first.solution_matrix(), second.solution_matrix())

    def test_different_seeds_differ(self, fig1_formula):
        first = GradientSATSampler(fig1_formula, config=_small_config(seed=1)).sample(16)
        second = GradientSATSampler(fig1_formula, config=_small_config(seed=2)).sample(16)
        assert not np.array_equal(first.solution_matrix(), second.solution_matrix())


class TestSampleResultBookkeeping:
    def test_round_records(self, fig1_formula):
        result = GradientSATSampler(fig1_formula, config=_small_config()).sample(8)
        assert len(result.rounds) >= 1
        record = result.rounds[0]
        assert record.num_candidates == 64
        assert record.num_valid <= record.num_candidates
        assert len(record.loss_history) == 5  # default iteration count

    def test_throughput_and_summary(self, fig1_formula):
        result = GradientSATSampler(fig1_formula, config=_small_config()).sample(8)
        assert result.throughput > 0
        summary = result.summary()
        assert summary["unique_solutions"] == result.num_unique
        assert 0.0 <= summary["validity_rate"] <= 1.0

    def test_invalid_request_rejected(self, fig1_formula):
        with pytest.raises(ValueError):
            GradientSATSampler(fig1_formula, config=_small_config()).sample(0)

    def test_stall_stops_early(self, fig1_formula):
        config = _small_config(batch_size=256, max_rounds=50, stall_rounds=2)
        result = GradientSATSampler(fig1_formula, config=config).sample(10_000)
        # Only 32 models exist, so the sampler must stop well before 50 rounds.
        assert len(result.rounds) < 50
        assert result.num_unique == 32

    def test_timeout_respected(self, fig1_formula):
        config = _small_config(max_rounds=10_000, timeout_seconds=0.2, stall_rounds=None)
        result = GradientSATSampler(fig1_formula, config=config).sample(10_000)
        assert result.elapsed_seconds < 5.0


class TestTimeoutDeadline:
    """Regression: the deadline must cut into a round's GD loop, not just
    be checked between rounds — one long round used to overshoot freely."""

    @staticmethod
    def _install_fake_clock(monkeypatch, tick=0.01):
        import repro.core.sampler as sampler_module

        state = {"now": 0.0}

        def fake_perf_counter():
            state["now"] += tick
            return state["now"]

        # time is the shared stdlib module, so this also covers the engine's
        # deadline checks in repro.engine.train; monkeypatch restores it.
        monkeypatch.setattr(sampler_module.time, "perf_counter", fake_perf_counter)
        return state

    def test_long_round_cut_at_deadline(self, fig1_formula, monkeypatch, learner):
        self._install_fake_clock(monkeypatch)
        config = _small_config(
            batch_size=16,
            max_rounds=10,
            stall_rounds=None,
            timeout_seconds=0.5,
        ).with_(iterations=1000)
        result = GradientSATSampler(fig1_formula, config=config).sample(10_000)
        assert result.timed_out
        assert len(result.rounds) == 1
        # The deadline struck mid-round: far fewer iterations than requested.
        assert 0 < len(result.rounds[0].loss_history) < 1000

    def test_partial_chunks_kept_on_timeout(self, fig1_formula, monkeypatch):
        self._install_fake_clock(monkeypatch)
        config = _small_config(
            batch_size=8,
            max_rounds=10,
            stall_rounds=None,
            timeout_seconds=0.3,
            chunk_size=1,  # per-sample chunks
        ).with_(iterations=5)
        result = GradientSATSampler(fig1_formula, config=config).sample(10_000)
        assert result.timed_out
        assert len(result.rounds) == 1
        # Only the chunks learned before the deadline produced candidates,
        # and every candidate that validated is still collected.
        assert 0 < result.rounds[0].num_candidates < 8
        assert result.num_generated == result.rounds[0].num_candidates
        matrix = result.solution_matrix()
        if matrix.shape[0]:
            assert fig1_formula.evaluate_batch(matrix).all()

    def test_timeout_overshoot_bounded_wall_clock(self, fig1_formula):
        # Without the in-round deadline, this round would run 100k GD
        # iterations (many seconds); with it, the overshoot is one iteration.
        config = _small_config(
            batch_size=256, max_rounds=3, stall_rounds=None, timeout_seconds=0.2
        ).with_(iterations=100_000)
        start = time.perf_counter()
        result = GradientSATSampler(fig1_formula, config=config).sample(10**6)
        elapsed = time.perf_counter() - start
        assert result.timed_out
        assert elapsed < 2.0


class TestUnsatisfiableAndEdgeCases:
    def test_unsat_instance_returns_empty(self, tiny_unsat_formula):
        config = _small_config(max_rounds=2)
        result = GradientSATSampler(tiny_unsat_formula, config=config).sample(5)
        assert result.num_unique == 0

    def test_unconstrained_instance_random_sampling(self):
        formula = CNF([[2, -1], [-2, 1]], num_variables=2, name="buf-only")
        result = GradientSATSampler(formula, config=_small_config()).sample(2)
        assert result.num_unique == 2
        assert formula.evaluate_batch(result.solution_matrix()).all()

    def test_free_variables_sampled(self):
        formula = CNF([[1, 2]], num_variables=4, name="free-vars")
        result = GradientSATSampler(formula, config=_small_config()).sample(6)
        assert result.num_unique >= 6
        assert formula.evaluate_batch(result.solution_matrix()).all()

    def test_precomputed_transform_reused(self, fig1_formula):
        transform = transform_cnf(fig1_formula)
        sampler = GradientSATSampler(fig1_formula, transform=transform, config=_small_config())
        assert sampler.transform is transform
        assert sampler.sample(8).num_unique >= 8


class TestDevicesAndOptimizers:
    def test_cpu_device_matches_gpu_results_quality(self, fig1_formula):
        # The per-sample loop (chunk_size=1) learns the same rows, bit for
        # bit, as the default whole-batch launch.
        batch_config = _small_config(batch_size=32, max_rounds=2)
        loop_config = batch_config.with_(chunk_size=1)
        batch_result = GradientSATSampler(fig1_formula, config=batch_config).sample(16)
        loop_result = GradientSATSampler(fig1_formula, config=loop_config).sample(16)
        assert loop_result.num_unique > 0
        np.testing.assert_array_equal(
            loop_result.solution_matrix(), batch_result.solution_matrix()
        )
        assert loop_result.num_generated == batch_result.num_generated

    def test_learning_curve_monotone(self, fig1_formula):
        sampler = GradientSATSampler(fig1_formula, config=_small_config(batch_size=128))
        curve = sampler.learning_curve(max_iterations=5, batch_size=128)
        assert len(curve) == 6
        assert all(later >= earlier for earlier, later in zip(curve, curve[1:]))
        assert curve[-1] > 0

    @pytest.mark.parametrize(
        "max_iterations, batch_size",
        [(-1, None), (2, 0), (2, -4)],
        ids=["negative-iterations", "zero-batch", "negative-batch"],
    )
    def test_learning_curve_rejects_bad_arguments(
        self, fig1_formula, max_iterations, batch_size
    ):
        # A zero batch used to fall back to the config batch, and a
        # negative iteration count used to return an empty curve.
        sampler = GradientSATSampler(fig1_formula, config=_small_config(batch_size=16))
        with pytest.raises(ValueError):
            sampler.learning_curve(max_iterations, batch_size=batch_size)

    def test_learning_curve_unconstrained_instance(self):
        formula = CNF([[1, 2]], num_variables=2, name="tiny")
        sampler = GradientSATSampler(formula, config=_small_config(batch_size=16))
        curve = sampler.learning_curve(max_iterations=3, batch_size=16)
        assert len(curve) == 4
