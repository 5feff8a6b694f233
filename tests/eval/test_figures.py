"""Tests for the figure builders (repro.eval.figures).

The figure builders default to the four large ablation instances; the tests
exercise them on small instances so the whole suite stays fast, and assert on
the qualitative *shapes* the paper reports.
"""

import pytest

from repro.baselines.cmsgen_like import CMSGenStyleSampler
from repro.circuit.builder import CircuitBuilder
from repro.core.config import SamplerConfig
from repro.eval.figures import (
    FRAMEWORK_OVERHEAD_MB,
    estimate_training_memory_mb,
    fig2_latency_vs_solutions,
    fig3_learning_curve,
    fig3_memory_vs_batch,
    fig4_gpu_speedup,
    fig4_ops_reduction,
    fig4_transform_time,
)
from repro.eval.runner import ThisWorkSampler

SMALL_INSTANCES = ["or-50-10-7-UC-10", "75-10-1-q"]


def _chain_circuit(num_gates: int):
    builder = CircuitBuilder("mem")
    a, b = builder.inputs(2)
    net = builder.and_(a, b)
    for _ in range(num_gates - 1):
        net = builder.or_(net, a)
    builder.output(net)
    return builder.circuit


@pytest.fixture(scope="module")
def quick_config():
    return SamplerConfig(batch_size=128, seed=0, max_rounds=4)


class TestFig2:
    def test_series_shapes(self, quick_config):
        samplers = [ThisWorkSampler(config=quick_config), CMSGenStyleSampler(seed=0)]
        series = fig2_latency_vs_solutions(
            instance_names=SMALL_INSTANCES,
            samplers=samplers,
            solution_counts=(5, 20),
            timeout_seconds=20,
        )
        assert set(series) == {"this-work", "cmsgen-style"}
        for points in series.values():
            assert points, "every sampler should produce at least one point"
            for unique, latency_ms in points:
                assert unique > 0 and latency_ms > 0
        # Per unique solution, this work's best point beats the baseline's.
        best_rate = {
            name: max(unique / ms for unique, ms in points) for name, points in series.items()
        }
        assert best_rate["this-work"] > best_rate["cmsgen-style"]

    def test_latency_grows_mildly_for_this_work(self, quick_config):
        """Fig. 2's key shape: the GD sampler's latency grows only slightly with
        the number of requested solutions (one batch already yields many)."""
        series = fig2_latency_vs_solutions(
            instance_names=["or-50-10-7-UC-10"],
            samplers=[ThisWorkSampler(config=quick_config)],
            solution_counts=(5, 100),
            timeout_seconds=20,
        )
        points = series["this-work"]
        assert len(points) == 2
        (small_n, small_ms), (large_n, large_ms) = points
        assert large_n >= small_n
        assert large_ms < small_ms * 20


class TestFig3:
    def test_learning_curve_monotone(self):
        curves = fig3_learning_curve(
            instance_names=["75-10-1-q"], max_iterations=4, batch_size=128,
            config=SamplerConfig(batch_size=128, seed=0),
        )
        curve = curves["75-10-1-q"]
        assert len(curve) == 5
        counts = [count for _, count in curve]
        assert all(later >= earlier for earlier, later in zip(counts, counts[1:]))
        assert counts[-1] > 0

    def test_memory_curves_monotone_in_batch(self):
        curves = fig3_memory_vs_batch(
            instance_names=SMALL_INSTANCES, batch_sizes=(100, 1000, 10000)
        )
        for series in curves.values():
            values = [mb for _, mb in series]
            assert all(later > earlier for earlier, later in zip(values, values[1:]))

    def test_memory_grows_with_circuit_complexity(self):
        curves = fig3_memory_vs_batch(
            instance_names=["or-50-10-7-UC-10", "Prod-8"], batch_sizes=(1000,)
        )
        assert curves["Prod-8"][0][1] > curves["or-50-10-7-UC-10"][0][1]


class TestMemoryModel:
    def test_linear_in_batch_size(self):
        circuit = _chain_circuit(20)
        small = estimate_training_memory_mb(circuit, 100) - FRAMEWORK_OVERHEAD_MB
        large = estimate_training_memory_mb(circuit, 1000) - FRAMEWORK_OVERHEAD_MB
        assert large == pytest.approx(10 * small)

    def test_grows_with_circuit_size(self):
        small = estimate_training_memory_mb(_chain_circuit(10), 100)
        large = estimate_training_memory_mb(_chain_circuit(1000), 100)
        assert large > small

    def test_counts_activations_gradients_and_parameters(self):
        # 2 inputs, 5 two-input gates, batch 64, float32: activations and
        # their gradients (2 * 64 * 7) plus V and its gradient (2 * 64 * 2).
        expected_bytes = (2 * 64 * 7 + 2 * 64 * 2) * 4
        mb = estimate_training_memory_mb(_chain_circuit(5), 64)
        assert mb == pytest.approx(expected_bytes / 2**20 + FRAMEWORK_OVERHEAD_MB)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_invalid_batch_size(self, batch):
        with pytest.raises(ValueError, match="batch_size"):
            estimate_training_memory_mb(_chain_circuit(3), batch)


class TestFig4:
    def test_gpu_speedup_greater_than_one(self):
        results = fig4_gpu_speedup(
            instance_names=["75-10-1-q"], batch_size=32, num_solutions=32,
            config=SamplerConfig(batch_size=32, seed=0),
        )
        record = results["75-10-1-q"]
        assert record["speedup"] > 2.0
        assert record["cpu_seconds"] > record["gpu_seconds"]

    def test_ops_reduction_greater_than_one(self):
        results = fig4_ops_reduction(SMALL_INSTANCES)
        assert set(results) == set(SMALL_INSTANCES)
        for value in results.values():
            assert value > 1.0
        assert sum(results.values()) / len(results) > 2.0

    def test_transform_time_positive_and_scales(self):
        results = fig4_transform_time(["or-50-10-7-UC-10", "Prod-8"])
        assert all(value > 0 for value in results.values())
        assert results["Prod-8"] > results["or-50-10-7-UC-10"]
