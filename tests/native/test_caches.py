"""Lifecycle of the per-artifact native memos (flattened plans and programs)."""

from __future__ import annotations

import numpy as np

import repro
from repro import native
from repro.cnf.formula import CNF
from repro.engine.compiler import compile_circuit
from repro.native.kernels import cnf_native_arrays, engine_native_state
from repro.serve.cache import ArtifactCache
from tests.engine.conftest import random_circuit


def _formula():
    return CNF([[1, -2], [2, 3], [-1, 3]], num_variables=3, name="cache-test")


class TestMemoisation:
    def test_plan_arrays_are_memoised_on_the_plan(self, kernels):
        plan = _formula().evaluation_plan()
        first = cnf_native_arrays(plan)
        assert cnf_native_arrays(plan) is first
        assert plan._native_arrays["native"] is first

    def test_program_state_is_memoised_on_the_program(self, kernels):
        circuit = random_circuit(np.random.default_rng(0), num_gates=15)
        program = compile_circuit(circuit, list(circuit.outputs))
        first = engine_native_state(program)
        assert engine_native_state(program) is first
        assert program._native_state is first

    def test_flattened_state_matches_the_blocks(self, kernels):
        circuit = random_circuit(np.random.default_rng(1), num_gates=20)
        program = compile_circuit(circuit, list(circuit.outputs))
        state = engine_native_state(program)
        assert state.num_ops == program.num_ops
        assert state.opcodes.shape == state.a_slots.shape == state.out_slots.shape
        position = 0
        for block in program.blocks:
            stop = position + block.size
            assert (state.opcodes[position:stop] == block.opcode).all()
            np.testing.assert_array_equal(state.a_slots[position:stop], block.a_slots)
            np.testing.assert_array_equal(
                state.out_slots[position:stop],
                np.arange(block.out_start, block.out_stop),
            )
            position = stop


class TestClearCaches:
    def test_native_clear_caches_strips_both_memos(self, kernels):
        plan = _formula().evaluation_plan()
        circuit = random_circuit(np.random.default_rng(2), num_gates=10)
        program = compile_circuit(circuit, list(circuit.outputs))
        cnf_native_arrays(plan)
        engine_native_state(program)
        native.clear_caches()
        assert plan._native_arrays == {}
        assert "_native_state" not in program.__dict__

    def test_xp_clear_caches_folds_in_native(self, kernels):
        plan = _formula().evaluation_plan()
        cnf_native_arrays(plan)
        repro.clear_caches()
        assert plan._native_arrays == {}

    def test_memos_rebuild_after_clearing(self, tier, kernels):
        formula = _formula()
        matrix = np.random.default_rng(3).random((16, 3)) < 0.5
        with native.use_kernel(tier):
            before = formula.evaluate_batch(matrix, backend="native")
            repro.clear_caches()
            after = formula.evaluate_batch(matrix, backend="native")
        np.testing.assert_array_equal(before, after)
        assert "native" in formula.evaluation_plan()._native_arrays


class TestArtifactCacheEviction:
    """Byte-bounded eviction must release native memos with their artifacts."""

    def test_byte_bound_eviction_drops_the_native_arrays(self, tier, fig1_formula):
        # max_bytes=1 holds at most one (oversized) artifact: admitting the
        # second one must evict the first on byte-bound grounds.
        cache = ArtifactCache(max_entries=8, max_bytes=1)
        artifact, built = cache.get_or_build(formula=fig1_formula)
        assert built
        plan = artifact.formula.evaluation_plan()
        matrix = np.random.default_rng(4).random((8, plan.num_variables)) < 0.5
        with native.use_kernel(tier):
            artifact.formula.evaluate_batch(matrix, backend="native")
        assert "native" in plan._native_arrays
        cache.get_or_build(formula=_formula())
        # Eviction released the memoised plan — and with it the flattened
        # native arrays, which ride the plan object.
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
