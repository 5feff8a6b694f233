"""Programs carry their own native layout; caches release it with the program.

The C kernels read a compiled program's per-op arrays directly, so there is
no separate native memo to build, keep in step or clear: the arrays live and
die with the program object.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.cnf.formula import CNF
from repro.engine.compiler import compile_circuit
from repro.engine.executor import forward
from repro.serve.cache import ArtifactCache
from tests.engine.conftest import random_circuit


def _formula():
    return CNF([[1, -2], [2, 3], [-1, 3]], num_variables=3, name="cache-test")


def _program(seed: int, num_gates: int):
    circuit = random_circuit(np.random.default_rng(seed), num_gates=num_gates)
    return compile_circuit(circuit, list(circuit.outputs))


class TestMemoisation:
    def test_program_state_is_memoised_on_the_program(self, kernels):
        # The kernels' view of a program is its own arrays' addresses,
        # cached on the program.
        program = _program(seed=0, num_gates=15)
        first = program.stream_args
        assert program.stream_args is first
        assert first == (
            program.num_ops,
            program.first_op_slot,
            program.opcodes.ctypes.data,
            program.a_slots.ctypes.data,
            program.b_slots.ctypes.data,
        )

    def test_flattened_state_matches_the_blocks(self, kernels):
        program = _program(seed=1, num_gates=20)
        assert program.opcodes.dtype == np.uint8
        assert program.a_slots.dtype == program.b_slots.dtype == np.int32
        assert program.opcodes.shape == program.a_slots.shape == program.b_slots.shape
        assert all(
            array.flags.c_contiguous
            for array in (program.opcodes, program.a_slots, program.b_slots)
        )
        position = 0
        for opcode, out_start, out_stop, a_slots, b_slots in program.blocks:
            stop = position + out_stop - out_start
            assert out_start == program.first_op_slot + position
            assert (program.opcodes[position:stop] == opcode).all()
            np.testing.assert_array_equal(program.a_slots[position:stop], a_slots)
            np.testing.assert_array_equal(program.b_slots[position:stop], b_slots)
            position = stop
        assert position == program.num_ops


class TestClearCaches:
    def test_memos_rebuild_after_clearing(self, tier, kernels):
        program = _program(seed=3, num_gates=12)
        probabilities = np.random.default_rng(3).random((16, program.input_width))
        before, _ = forward(program, probabilities)
        repro.clear_caches()
        after, _ = forward(program, probabilities)
        np.testing.assert_array_equal(before, after)


class TestArtifactCacheEviction:
    """Byte-bounded eviction must release native memos with their artifacts."""

    def test_byte_bound_eviction_drops_the_native_arrays(self, tier, fig1_formula):
        # max_bytes=1 holds at most one (oversized) artifact: admitting the
        # second one must evict the first on byte-bound grounds.
        cache = ArtifactCache(max_entries=8, max_bytes=1)
        artifact, built = cache.get_or_build(formula=fig1_formula)
        assert built
        circuit = artifact.transform.circuit
        program = artifact.round.learn
        assert any(cached is program for cached in circuit.engine_cache().values())
        probabilities = np.random.default_rng(4).random((8, program.input_width))
        forward(program, probabilities)
        cache.get_or_build(formula=_formula())
        # Eviction released the memoised program — and with it the per-op
        # arrays the native kernels read — and the CNF plan.
        assert circuit.engine_cache() == {}
        assert artifact.formula._plan is None

    def test_lru_eviction_releases_the_memoised_plan(self, fig1_formula):
        cache = ArtifactCache(max_entries=1)
        first, built_first = cache.get_or_build(formula=_formula())
        assert built_first
        _, built_second = cache.get_or_build(formula=fig1_formula)
        assert built_second
        # max_entries=1: admitting the second artifact evicted the first and
        # cleared its memoised evaluation plan.
        assert len(cache.signatures()) == 1
        assert first.formula._plan is None
