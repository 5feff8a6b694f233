"""Tests for direct circuit sampling (repro.core.circuit_sampler)."""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.circuit_sampler import CircuitSampler, sample_circuit
from repro.core.config import SamplerConfig
from repro import obs


def _config(**overrides):
    base = dict(batch_size=64, seed=0, max_rounds=6)
    base.update(overrides)
    return SamplerConfig(**base)


def _adder_circuit(width=3):
    builder = CircuitBuilder("adder")
    a_bits = builder.inputs(width, prefix="a")
    b_bits = builder.inputs(width, prefix="b")
    sums, carry = builder.ripple_adder(a_bits, b_bits)
    for net in sums:
        builder.output(net)
    builder.output(carry)
    return builder.circuit, sums, carry


class TestConstruction:
    def test_default_targets_are_all_outputs_true(self, small_circuit):
        sampler = CircuitSampler(small_circuit, config=_config())
        assert set(sampler.output_targets) == set(small_circuit.outputs)
        assert all(sampler.output_targets.values())

    def test_unknown_target_net_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            CircuitSampler(small_circuit, output_targets={"nope": True})

    def test_circuit_without_outputs_rejected(self):
        builder = CircuitBuilder()
        builder.input("a")
        with pytest.raises(ValueError):
            CircuitSampler(builder.circuit)

    def test_constrained_vs_unconstrained_inputs(self, small_circuit):
        sampler = CircuitSampler(small_circuit, output_targets={"g": True}, config=_config())
        # g = a ^ c: b is unconstrained.
        assert set(sampler._constrained_inputs) == {"a", "c"}
        assert sampler._unconstrained_inputs == ["b"]


class TestSampling:
    def test_all_solutions_meet_targets(self, small_circuit):
        result = sample_circuit(
            small_circuit, output_targets={"f": True, "g": True},
            num_solutions=10, config=_config(),
        )
        assert result.num_unique > 0
        for assignment in result.as_assignments():
            values = small_circuit.evaluate(assignment)
            assert values["f"] is True and values["g"] is True

    def test_false_targets_supported(self, small_circuit):
        result = sample_circuit(
            small_circuit, output_targets={"f": False},
            num_solutions=4, config=_config(),
        )
        assert result.num_unique > 0
        for assignment in result.as_assignments():
            assert small_circuit.evaluate(assignment)["f"] is False

    def test_adder_sum_constraint(self):
        """Constrain a 3-bit adder to produce sum == 5 (carry 0) and verify arithmetic."""
        circuit, sums, carry = _adder_circuit(3)
        targets = {sums[0]: True, sums[1]: False, sums[2]: True, carry: False}
        result = sample_circuit(
            circuit, output_targets=targets, num_solutions=6,
            config=_config(batch_size=128),
        )
        assert result.num_unique >= 4  # exactly 6 operand pairs sum to 5
        for assignment in result.as_assignments():
            a_value = sum(assignment[f"a{i}"] << i for i in range(3))
            b_value = sum(assignment[f"b{i}"] << i for i in range(3))
            assert a_value + b_value == 5

    def test_unsatisfiable_targets_yield_nothing(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        builder.output(builder.and_(a, builder.not_(a), name="f"))
        result = sample_circuit(
            builder.circuit, output_targets={"f": True},
            num_solutions=3, config=_config(max_rounds=2),
        )
        assert result.num_unique == 0
        assert result.validity_rate == 0.0

    def test_statistics_and_matrix(self, small_circuit):
        result = sample_circuit(small_circuit, num_solutions=8, config=_config())
        matrix = result.input_matrix()
        assert matrix.shape == (result.num_unique, len(result.input_order))
        assert result.throughput > 0
        assert 0.0 <= result.validity_rate <= 1.0
        assert result.rounds >= 1

    def test_deterministic_given_seed(self, small_circuit):
        first = sample_circuit(small_circuit, num_solutions=8, config=_config(seed=5))
        second = sample_circuit(small_circuit, num_solutions=8, config=_config(seed=5))
        assert np.array_equal(first.input_matrix(), second.input_matrix())

    def test_invalid_request(self, small_circuit):
        with pytest.raises(ValueError):
            CircuitSampler(small_circuit, config=_config()).sample(0)

    def test_loss_history_recorded(self, small_circuit):
        result = sample_circuit(small_circuit, num_solutions=4, config=_config(max_rounds=1))
        assert len(result.loss_history) == _config().iterations


class TestTelemetry:
    def test_config_telemetry_records_spans(self, small_circuit):
        # The config's telemetry spec used to be ignored: a CircuitSampler
        # run recorded no spans, unlike a GradientSATSampler run.
        obs.tracer().clear()
        config = SamplerConfig(batch_size=8, max_rounds=2, telemetry="mem")
        try:
            CircuitSampler(small_circuit, config=config).sample(num_solutions=100)
            names = {record["name"] for record in obs.tracer().spans()}
        finally:
            obs.tracer().clear()
        assert "engine.learn_batch" in names
        assert not obs.tracing_enabled()
