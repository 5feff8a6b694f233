"""Tests for cooperative cancellation (should_stop) and round callbacks.

The satellite contract: ``should_stop`` is polled at exactly the timeout
deadline's check points — between rounds, between chunks and between GD
iterations — with the engine's learning loop and with the reference
interpreter oracle's, and a halt it causes is reported as
``stopped_early`` (distinct from ``timed_out``).
"""

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from tests.conftest import FIG1_DIMACS


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


def make_counter_stop(after_calls):
    calls = {"count": 0}

    def should_stop():
        calls["count"] += 1
        return calls["count"] > after_calls

    return should_stop, calls


class TestSamplerCancellation:
    def test_immediate_stop(self, fig1, learner):
        sampler = GradientSATSampler(fig1, config=SamplerConfig(batch_size=16, seed=0))
        result = sampler.sample(10_000, should_stop=lambda: True)
        assert result.stopped_early is True
        assert result.timed_out is False
        assert result.num_unique == 0
        assert result.summary()["stopped_early"] is True

    def test_mid_run_stop_keeps_partial_work(self, fig1, learner):
        should_stop, calls = make_counter_stop(after_calls=3)
        sampler = GradientSATSampler(fig1, config=SamplerConfig(batch_size=16, seed=0))
        result = sampler.sample(10_000, should_stop=should_stop)
        assert result.stopped_early is True
        assert calls["count"] > 3  # polled repeatedly, inside the GD loop too

    def test_no_stop_means_flag_unset(self, fig1):
        sampler = GradientSATSampler(fig1, config=SamplerConfig(batch_size=16, seed=0))
        result = sampler.sample(8, should_stop=lambda: False)
        assert result.stopped_early is False
        assert result.summary()["stopped_early"] is False

    def test_stop_does_not_change_completed_prefix(self, fig1):
        # A run stopped after it naturally finished equals the unstopped run.
        config = SamplerConfig(batch_size=16, seed=0)
        full = GradientSATSampler(fig1, config=config).sample(8)
        stopped = GradientSATSampler(fig1, config=config).sample(
            8, should_stop=lambda: False
        )
        assert np.array_equal(
            full.solutions.to_matrix(), stopped.solutions.to_matrix()
        )

    def test_on_round_reports_new_unique_rows(self, fig1):
        sampler = GradientSATSampler(fig1, config=SamplerConfig(batch_size=16, seed=0))
        events = []
        result = sampler.sample(
            30, on_round=lambda record, rows: events.append((record.round_index, rows))
        )
        assert len(events) == len(result.rounds)
        assert [index for index, _ in events] == [r.round_index for r in result.rounds]
        stacked = np.concatenate([rows for _, rows in events], axis=0)
        assert np.array_equal(stacked, result.solutions.to_matrix())
