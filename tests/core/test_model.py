"""The probabilistic circuit model (Eq. 7): a circuit cone's compiled program.

Rounds run :attr:`RoundPlan.learn <repro.core.transform.RoundPlan.learn>`,
the constrained cone's program from
:func:`~repro.engine.compiler.compiled_program_for`; these tests run such
programs with :func:`repro.engine.executor.forward` /
:func:`~repro.engine.executor.backward`.
"""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.transform import transform_cnf
from repro.engine.compiler import compiled_program_for
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
            compiled_program_for(small_circuit, [])

    def test_cone_restriction(self, small_circuit):
        program = compiled_program_for(small_circuit, ["g"])
        # g = a ^ c does not depend on b.
        assert set(program.cone_inputs) == {"a", "c"}

    def test_explicit_input_order_must_cover_cone(self, small_circuit):
        with pytest.raises(ValueError):
            compiled_program_for(small_circuit, ["f"], ["a"])


class TestForwardSemantics:
    """A compiled cone, run by ``engine.executor.forward``."""

    def test_matches_boolean_circuit_on_corners(self):
        circuit = _mux_circuit()
        program = compiled_program_for(circuit, ["out"])
        matrix = all_assignments(3).astype(float)
        outputs, _ = forward(program, matrix)
        for row, bits in enumerate(all_assignments(3)):
            assignment = dict(zip(circuit.inputs, bits))
            expected = circuit.evaluate(assignment)["out"]
            assert np.isclose(outputs[row, 0], float(expected))

    def test_probabilistic_interior_point(self):
        """For the mux with all inputs at probability 0.5 the output probability is 0.5."""
        program = compiled_program_for(_mux_circuit(), ["out"])
        outputs, _ = forward(program, np.full((1, 3), 0.5))
        assert 0.25 <= outputs[0, 0] <= 0.75

    def test_constant_nets(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        out = builder.and_(a, one, name="out")
        builder.output(out)
        program = compiled_program_for(builder.circuit, ["out"])
        outputs, _ = forward(program, [[0.3]])
        assert np.isclose(outputs[0, 0], 0.3)

    def test_shape_validation(self, small_circuit):
        program = compiled_program_for(small_circuit, ["f"])
        with pytest.raises(ValueError):
            forward(program, np.zeros((2, 99)))

    def test_gradients_flow_to_inputs(self):
        program = compiled_program_for(_mux_circuit(), ["out"])
        outputs, cache = forward(program, np.full((4, 3), 0.4))
        grad = backward(program, cache, np.ones_like(outputs))
        assert grad.shape == (4, 3)
        assert np.abs(grad).sum() > 0


class TestFromTransform:
    def test_fig1_model(self, fig1_formula):
        transform = transform_cnf(fig1_formula)
        program = transform.round_plan.learn
        assert program is compiled_program_for(
            transform.circuit, transform.constraint_nets(), transform.constrained_inputs()
        )
        assert program.output_nets == transform.constraint_nets()
        assert len(program.output_nets) == 1
        assert program.input_width == len(transform.constrained_inputs())
        outputs, _ = forward(program, np.ones((2, program.input_width)))
        assert outputs.shape == (2, 1)

    def test_unconstrained_instance_rejected(self):
        from repro.cnf.formula import CNF

        # A single gate-definition group with no output constraint at all:
        # the round has nothing to learn.
        formula = CNF([[2, -1], [-2, 1]], num_variables=2, name="free")
        transform = transform_cnf(formula)
        assert not transform.constraints
        assert transform.round_plan.learn is None
