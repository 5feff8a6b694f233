"""Tests for the unified sampler runner (repro.eval.runner)."""

import pytest

from repro.core.config import SamplerConfig
from repro.eval.runner import (
    RunRecord,
    ThisWorkSampler,
    default_samplers,
    run_sampler_on_instance,
)


@pytest.fixture(scope="module")
def quick_config():
    return SamplerConfig(batch_size=64, seed=0, max_rounds=4)


class TestThisWorkSampler:
    def test_sample_output(self, fig1_formula, quick_config):
        sampler = ThisWorkSampler(config=quick_config)
        output = sampler.sample(fig1_formula, num_solutions=16, timeout_seconds=20)
        assert output.sampler_name == "this-work"
        assert output.num_unique >= 16
        assert output.extra["primary_inputs"] == 6
        assert output.extra["ops_reduction"] > 1.0

    def test_transform_cached_between_calls(self, fig1_formula, quick_config):
        cache = {}
        sampler = ThisWorkSampler(config=quick_config, transform_cache=cache)
        sampler.sample(fig1_formula, num_solutions=4)
        assert "fig1" in cache
        first_transform = cache["fig1"]
        sampler.sample(fig1_formula, num_solutions=4)
        assert cache["fig1"] is first_transform

    def test_timeout_forwarded(self, fig1_formula, quick_config):
        sampler = ThisWorkSampler(config=quick_config)
        output = sampler.sample(fig1_formula, num_solutions=10_000, timeout_seconds=0.1)
        assert output.elapsed_seconds < 5.0


class TestRunRecord:
    def test_throughput(self):
        record = RunRecord("s", "i", num_unique=50, elapsed_seconds=2.0, num_requested=50)
        assert record.throughput == 25.0

    def test_zero_time(self):
        record = RunRecord("s", "i", num_unique=0, elapsed_seconds=0.0, num_requested=5)
        assert record.throughput == 0.0


class TestRunners:
    def test_run_sampler_on_instance(self, fig1_formula, quick_config):
        record = run_sampler_on_instance(
            ThisWorkSampler(config=quick_config), fig1_formula, num_solutions=8
        )
        assert record.instance_name == "fig1"
        assert record.num_unique >= 8
        assert record.transform_seconds >= 0.0

    def test_default_samplers_line_up(self, quick_config):
        line_up = default_samplers(config=quick_config)
        names = [sampler.name for sampler in line_up]
        assert names == ["this-work", "unigen-style", "cmsgen-style", "diffsampler-style"]
