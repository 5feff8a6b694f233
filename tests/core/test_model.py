"""Tests for the probabilistic circuit model (repro.core.model)."""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.model import ProbabilisticCircuitModel
from repro.core.transform import transform_cnf
from repro.engine.executor import backward, forward
from tests.conftest import all_assignments


def _mux_circuit():
    builder = CircuitBuilder("mux")
    s, t, e = builder.input("s"), builder.input("t"), builder.input("e")
    out = builder.mux(s, t, e, name="out")
    builder.output(out)
    return builder.circuit


class TestConstruction:
    def test_requires_outputs(self, small_circuit):
        with pytest.raises(ValueError):
            ProbabilisticCircuitModel(small_circuit, output_nets=[])

    def test_cone_restriction(self, small_circuit):
        model = ProbabilisticCircuitModel(small_circuit, output_nets=["g"])
        # g = a ^ c does not depend on b.
        assert set(model.input_order) == {"a", "c"}

    def test_explicit_input_order_must_cover_cone(self, small_circuit):
        with pytest.raises(ValueError):
            ProbabilisticCircuitModel(small_circuit, output_nets=["f"], input_order=["a"])


class TestForwardSemantics:
    """The model's compiled program, run by ``engine.executor.forward``."""

    def test_matches_boolean_circuit_on_corners(self):
        circuit = _mux_circuit()
        model = ProbabilisticCircuitModel(circuit, output_nets=["out"])
        matrix = all_assignments(3).astype(float)
        outputs, _ = forward(model.program, matrix)
        for row, bits in enumerate(all_assignments(3)):
            assignment = dict(zip(model.input_order, bits))
            expected = circuit.evaluate(assignment)["out"]
            assert np.isclose(outputs[row, 0], float(expected))

    def test_probabilistic_interior_point(self):
        """For the mux with all inputs at probability 0.5 the output probability is 0.5."""
        circuit = _mux_circuit()
        model = ProbabilisticCircuitModel(circuit, output_nets=["out"])
        outputs, _ = forward(model.program, np.full((1, 3), 0.5))
        assert 0.25 <= outputs[0, 0] <= 0.75

    def test_constant_nets(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        out = builder.and_(a, one, name="out")
        builder.output(out)
        model = ProbabilisticCircuitModel(builder.circuit, output_nets=["out"])
        outputs, _ = forward(model.program, [[0.3]])
        assert np.isclose(outputs[0, 0], 0.3)

    def test_shape_validation(self, small_circuit):
        model = ProbabilisticCircuitModel(small_circuit, output_nets=["f"])
        with pytest.raises(ValueError):
            forward(model.program, np.zeros((2, 99)))

    def test_gradients_flow_to_inputs(self):
        circuit = _mux_circuit()
        model = ProbabilisticCircuitModel(circuit, output_nets=["out"])
        outputs, cache = forward(model.program, np.full((4, 3), 0.4))
        grad = backward(model.program, cache, np.ones_like(outputs))
        assert grad.shape == (4, 3)
        assert np.abs(grad).sum() > 0


class TestFromTransform:
    def test_fig1_model(self, fig1_formula):
        transform = transform_cnf(fig1_formula)
        model = ProbabilisticCircuitModel.from_transform(transform)
        assert model.num_outputs == 1
        assert model.num_inputs == len(transform.constrained_inputs())
        outputs, _ = forward(model.program, np.ones((2, model.num_inputs)))
        assert outputs.shape == (2, 1)

    def test_unconstrained_instance_rejected(self):
        from repro.cnf.formula import CNF

        # A single gate-definition group with no output constraint at all.
        formula = CNF([[2, -1], [-2, 1]], num_variables=2, name="free")
        transform = transform_cnf(formula)
        if not transform.constraints:
            with pytest.raises(ValueError):
                ProbabilisticCircuitModel.from_transform(transform)
