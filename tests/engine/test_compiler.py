"""Tests for the circuit-to-program compiler (repro.engine.compiler)."""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.engine.compiler import CompileError, compile_circuit, compiled_program_for
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT
from tests.engine.conftest import random_circuit


def _opcode_counts(program):
    counts = np.bincount(program.opcodes, minlength=3).tolist()
    return {OP_MUL: counts[OP_MUL], OP_ADD: counts[OP_ADD], OP_NOT: counts[OP_NOT]}


class TestLowering:
    def test_and_gate_is_mul_chain(self):
        builder = CircuitBuilder()
        a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
        builder.output(builder.and_(a, b, c, name="out"))
        program = compile_circuit(builder.circuit, ["out"])
        assert program.num_ops == 2
        assert (program.opcodes == OP_MUL).all()

    def test_xor_gate_lowering(self):
        builder = CircuitBuilder()
        a, b = builder.input("a"), builder.input("b")
        builder.output(builder.xor_(a, b, name="out"))
        program = compile_circuit(builder.circuit, ["out"])
        # r = a(1-b) + (1-a)b: two NOTs, two MULs, one ADD.
        assert _opcode_counts(program) == {OP_NOT: 2, OP_MUL: 2, OP_ADD: 1}

    def test_buffer_gates_are_aliased_away(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        buffered = builder.buf(a, name="buffered")
        builder.output(builder.not_(buffered, name="out"))
        program = compile_circuit(builder.circuit, ["out", "buffered", "a"])
        out_slot, buffered_slot, a_slot = program.output_slots.tolist()
        assert buffered_slot == a_slot
        assert out_slot != a_slot
        assert program.num_ops == 1

    def test_cone_restriction_excludes_unrelated_gates(self, small_circuit):
        # g = a ^ c: the f-cone gates (AND/OR over b) must not be compiled.
        program = compile_circuit(small_circuit, ["g"])
        assert program.cone_inputs == ["a", "c"]
        # Exactly the XOR lowering: no op of f's AND/OR cone was emitted.
        assert _opcode_counts(program) == {OP_NOT: 2, OP_MUL: 2, OP_ADD: 1}

    def test_constant_slots(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        one = builder.constant(True)
        builder.output(builder.and_(a, one, name="out"))
        program = compile_circuit(builder.circuit, ["out"])
        assert program.const1_slot >= 0
        assert program.const0_slot == -1


class TestProgramInvariants:
    def test_blocks_are_levelized_and_contiguous(self, rng):
        circuit = random_circuit(rng, num_gates=40)
        program = compile_circuit(circuit, list(circuit.outputs))
        previous_level = 0
        next_slot = program.num_slots - program.num_ops
        for level, (opcode, out_start, out_stop, a_slots, b_slots) in zip(
            program.block_levels.tolist(), program.blocks
        ):
            assert level >= previous_level
            previous_level = level
            assert out_start == next_slot
            next_slot = out_stop
            ops = slice(out_start - program.first_op_slot, out_stop - program.first_op_slot)
            assert (program.opcodes[ops] == opcode).all()
            # Operands must be computed strictly before the block's level.
            for slots in (a_slots, b_slots):
                for slot in slots:
                    assert slot < out_start
        assert next_slot == program.num_slots
        program.check()

    def test_scatter_plans_are_sound(self, rng):
        circuit = random_circuit(rng, num_gates=60)
        program = compile_circuit(circuit, list(circuit.outputs))
        for (opcode, _, _, a_slots, b_slots), (a_plan, b_plan) in zip(
            program.blocks, program.scatter_plans
        ):
            plans = [(a_plan, a_slots)]
            if opcode != OP_NOT:
                plans.append((b_plan, b_slots))
            else:
                assert b_plan is None
            for plan, slots in plans:
                if plan.unique:
                    assert len(np.unique(slots)) == len(slots)
                else:
                    # The dedup path must cover every slot exactly once in sum.
                    grads = np.zeros((program.num_slots, 1))
                    plan.scatter(grads, np.ones((len(slots), 1)))
                    expected = np.zeros(program.num_slots)
                    np.add.at(expected, slots, 1.0)
                    assert np.array_equal(grads[:, 0], expected)


class TestValidation:
    def test_unknown_output_rejected(self, small_circuit):
        with pytest.raises(CompileError):
            compile_circuit(small_circuit, ["nope"])

    def test_empty_outputs_rejected(self, small_circuit):
        with pytest.raises(CompileError):
            compile_circuit(small_circuit, [])

    def test_missing_cone_input_rejected(self, small_circuit):
        with pytest.raises(CompileError):
            compile_circuit(small_circuit, ["f"], input_order=["a"])


class TestMemoization:
    def test_repeated_compiles_are_cached(self, small_circuit):
        first = compiled_program_for(small_circuit, ["f"])
        second = compiled_program_for(small_circuit, ["f"])
        assert first is second
        other = compiled_program_for(small_circuit, ["g"])
        assert other is not first

    def test_mutation_invalidates_cache(self, small_circuit):
        first = compiled_program_for(small_circuit, ["f"])
        small_circuit.add_gate("extra", GateType.NOT, ["a"])
        second = compiled_program_for(small_circuit, ["f"])
        assert first is not second

    def test_add_input_invalidates_cache(self, small_circuit):
        first = compiled_program_for(small_circuit, ["f"])
        assert small_circuit.engine_cache()
        small_circuit.add_input("z")
        assert not small_circuit.engine_cache()
        second = compiled_program_for(small_circuit, ["f"])
        assert first is not second
        assert np.array_equal(second.a_slots, first.a_slots)
        # The new input widens the default column layout; the cone is unchanged.
        assert second.input_width == first.input_width + 1
