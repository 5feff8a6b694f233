"""Tests for structural circuit optimization.

The pass-level classes exercise the separate passes kept as the oracle in
:mod:`tests.oracles.optimize`; :class:`TestOptimizeCircuit` exercises the
one-pass :func:`repro.circuit.optimize.optimize_circuit` the library ships.
"""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.optimize import optimize_circuit
from repro.circuit.simulate import simulate
from repro.circuit.stats import two_input_gate_equivalents
from tests.conftest import all_assignments
from tests.oracles.optimize import (
    constant_propagate,
    optimize_reference,
    strash,
    sweep_dangling,
)


def _outputs_equal(before, after, num_inputs):
    matrix = all_assignments(num_inputs)
    before_values = simulate(before, matrix, input_order=before.inputs)
    after_values = simulate(after, matrix, input_order=before.inputs)
    return all(
        np.array_equal(before_values[name], after_values[name]) for name in before.outputs
    )


class TestConstantPropagation:
    def test_and_with_zero_collapses(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        zero = builder.constant(False)
        out = builder.and_(a, zero, name="out")
        builder.output(out)
        optimized = constant_propagate(builder.circuit)
        assert optimized.gate("out").gate_type == GateType.CONST0

    def test_or_with_one_collapses(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        out = builder.or_(a, one, name="out")
        builder.output(out)
        optimized = constant_propagate(builder.circuit)
        assert optimized.gate("out").gate_type == GateType.CONST1

    def test_xor_with_one_becomes_inverter(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        out = builder.xor_(a, one, name="out")
        builder.output(out)
        optimized = constant_propagate(builder.circuit)
        assert _outputs_equal(builder.circuit, optimized, 1)

    def test_semantics_preserved(self, small_circuit):
        assert _outputs_equal(small_circuit, constant_propagate(small_circuit), 3)


class TestStrash:
    def test_duplicate_gates_merged(self):
        builder = CircuitBuilder()
        a, b = builder.inputs(2)
        first = builder.and_(a, b)
        second = builder.and_(b, a)  # commutatively identical
        out = builder.or_(first, second, name="out")
        builder.output(out)
        hashed = strash(builder.circuit)
        assert _outputs_equal(builder.circuit, hashed, 2)
        assert hashed.num_gates < builder.circuit.num_gates

    def test_distinct_gates_kept(self, small_circuit):
        hashed = strash(small_circuit)
        assert _outputs_equal(small_circuit, hashed, 3)


class TestSweep:
    def test_dangling_gates_removed(self):
        builder = CircuitBuilder()
        a, b = builder.inputs(2)
        used = builder.and_(a, b, name="used")
        builder.or_(a, b)  # dangling cone
        builder.output(used)
        swept = sweep_dangling(builder.circuit)
        assert swept.num_gates == 1
        assert set(swept.inputs) == {a, b}

    def test_inputs_always_kept(self):
        builder = CircuitBuilder()
        a, b = builder.inputs(2)
        builder.output(builder.buf(a, name="out"))
        swept = sweep_dangling(builder.circuit)
        assert b in swept.inputs


class TestOptimizeCircuit:
    def test_semantics_preserved_on_random_netlists(self):
        from repro.instances.iscas import generate_iscas_like_instance

        _, circuit = generate_iscas_like_instance(
            num_inputs=6, num_gates=40, num_constrained_outputs=2, seed=7
        )
        optimized = optimize_circuit(circuit)
        matrix = all_assignments(6)
        before = simulate(circuit, matrix, input_order=circuit.inputs, nets=circuit.outputs)
        after = simulate(optimized, matrix, input_order=circuit.inputs, nets=circuit.outputs)
        for name in circuit.outputs:
            assert np.array_equal(before[name], after[name])

    def test_never_increases_cost(self, small_circuit):
        optimized = optimize_circuit(small_circuit)
        assert two_input_gate_equivalents(optimized) <= two_input_gate_equivalents(small_circuit)

    def test_constant_cone_fully_folds(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        zero = builder.constant(False)
        t = builder.and_(one, zero)
        out = builder.or_(t, builder.and_(a, one), name="out")
        builder.output(out)
        optimized = optimize_circuit(builder.circuit)
        assert _outputs_equal(builder.circuit, optimized, 1)
        assert optimized.num_gates <= builder.circuit.num_gates

    def test_constants_fold_in_the_pass(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        zero = builder.constant(False)
        one = builder.constant(True)
        builder.output(builder.and_(a, zero, name="low"))
        builder.output(builder.or_(a, one, name="high"))
        builder.output(builder.xor_(a, one, name="flip"))
        optimized = optimize_circuit(builder.circuit)
        assert optimized.gate("low").gate_type == GateType.CONST0
        assert optimized.gate("high").gate_type == GateType.CONST1
        assert optimized.gate("flip").gate_type == GateType.NOT
        assert _outputs_equal(builder.circuit, optimized, 1)

    def test_duplicate_cascade_merges_in_one_pass(self):
        """Each level of a cascade needs another oracle round; one pass suffices."""
        builder = CircuitBuilder()
        a, b = builder.inputs(2)
        left, right = builder.and_(a, b), builder.and_(b, a)
        for _ in range(5):
            left, right = builder.not_(left), builder.not_(right)
        builder.output(builder.or_(left, right, name="out"))
        optimized = optimize_circuit(builder.circuit)
        assert optimized.num_gates == 1 + 5 + 1
        assert optimize_reference(builder.circuit, max_rounds=1).num_gates > optimized.num_gates
        assert optimize_reference(builder.circuit).num_gates > optimized.num_gates
        assert _outputs_equal(builder.circuit, optimized, 2)

    def test_output_duplicates_keep_their_names(self):
        builder = CircuitBuilder()
        a, b = builder.inputs(2)
        inner = builder.and_(a, b)
        first = builder.and_(b, a, name="first")
        second = builder.and_(a, b, name="second")
        builder.output(builder.or_(inner, a, name="use"))
        for net in (first, second):
            builder.output(net)
        optimized = optimize_circuit(builder.circuit)
        assert optimized.outputs == builder.circuit.outputs
        # The output the walk reaches first takes over the non-output
        # duplicate, and the other output becomes its buffer.
        kept, buffered = sorted(
            (first, second), key=lambda net: optimized.gate(net).gate_type != GateType.AND
        )
        assert optimized.gate(kept).gate_type == GateType.AND
        assert optimized.gate(buffered).gate_type == GateType.BUF
        assert optimized.gate(buffered).fanins == (kept,)
        assert optimized.gate("use").fanins == (kept, a)
        assert not optimized.has_net(inner)
        assert _outputs_equal(builder.circuit, optimized, 2)

    def test_emits_its_topological_order(self, small_circuit):
        optimized = optimize_circuit(small_circuit)
        order = list(optimized.net_names())
        assert optimized.topological_order() == order  # installed, not sorted again
        position = {name: index for index, name in enumerate(order)}
        for gate in optimized.gates:
            assert all(position[fanin] < position[gate.name] for fanin in gate.fanins)
        assert optimized.inputs == small_circuit.inputs
