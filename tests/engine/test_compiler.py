"""Tests for the circuit-to-program compiler (repro.engine.compiler)."""

import numpy as np
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.engine.compiler import CompileError, compile_circuit, compiled_program_for
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, ScatterPlan
from tests.engine.conftest import random_circuit
from tests.oracles.compiler import compile_blocks


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
        # The op stream is sorted by (level, opcode): each block of the
        # block-based oracle compiler is one contiguous run of ops with its
        # opcode, whose operands all lie below the run.  That order fixes
        # the slots and the C backward's accumulation order.
        circuit = random_circuit(rng, num_gates=40)
        outputs = list(circuit.outputs)
        program = compile_circuit(circuit, outputs)
        reference = compile_blocks(circuit, outputs, circuit.inputs)
        previous_level = 0
        next_slot = program.first_op_slot
        for block in reference.blocks:
            assert block.level >= previous_level
            previous_level = block.level
            assert block.out_start == next_slot
            next_slot = block.out_start + block.size
            ops = slice(block.out_start - program.first_op_slot, next_slot - program.first_op_slot)
            assert (program.opcodes[ops] == block.opcode).all()
            # Operands must be computed strictly before the block's level.
            assert (program.a_slots[ops] < block.out_start).all()
            assert (program.b_slots[ops] < block.out_start).all()
        assert next_slot == program.num_slots
        program.check()

    def test_scatter_plan_is_sound(self, rng):
        # The output plan scatters output gradients, and BUF aliasing can
        # make two outputs share a slot: duplicate-free slot arrays take the
        # buffered path, and the dedup path must still count every slot.
        circuit = random_circuit(rng, num_gates=60)
        program = compile_circuit(circuit, list(circuit.outputs) * 2)
        for slots in (
            program.output_slots,
            program.output_slots[: len(circuit.outputs)],
            rng.integers(0, program.num_slots, size=50).astype(np.int32),
        ):
            plan = ScatterPlan.build(slots)
            if plan.unique:
                assert len(np.unique(slots)) == len(slots)
            else:
                grads = np.zeros((program.num_slots, 1))
                plan.scatter(grads, np.ones((len(slots), 1)))
                expected = np.zeros(program.num_slots)
                np.add.at(expected, slots, 1.0)
                assert np.array_equal(grads[:, 0], expected)
        assert not program.output_plan.unique


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
