"""Backend-equivalence suite: the array-backend protocol vs the NumPy reference.

Parametrised over the array runtimes (NumPy, the only one).  The contract:
engine forward passes, input gradients, boolean/packed execution, CNF kernel
results and end-to-end sampled solutions reached through the backend's
``from_numpy``/``to_numpy`` boundary match the ``NumpyBackend`` reference
bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.xp as xp
from repro.cnf.formula import CNF
from repro.core.circuit_sampler import CircuitSampler
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, execute_bool, execute_packed, forward
from tests.engine.conftest import random_circuit

BACKENDS = ["numpy"]


def _numpy_reference():
    return xp.get_backend("numpy")


def _program(seed: int = 0, num_gates: int = 40):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=6, num_gates=num_gates, num_outputs=3)
    return compile_circuit(circuit, list(circuit.outputs)), circuit


def _assert_matches(candidate, reference):
    np.testing.assert_array_equal(xp.to_numpy(candidate), reference)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestEngineEquivalence:
    def test_forward_matches_reference(self, backend_name):
        program, _ = _program(seed=1)
        probabilities = np.random.default_rng(1).random((16, program.input_width))
        reference, _ = forward(program, probabilities, _numpy_reference())
        backend = xp.get_backend(backend_name)
        outputs, _ = forward(program, backend.from_numpy(probabilities), backend)
        _assert_matches(outputs, reference)

    def test_backward_matches_reference(self, backend_name):
        program, _ = _program(seed=2)
        rng = np.random.default_rng(2)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        _, cache_ref = forward(program, probabilities, _numpy_reference())
        reference = backward(program, cache_ref, seed_grad)
        backend = xp.get_backend(backend_name)
        _, cache = forward(program, backend.from_numpy(probabilities), backend)
        grads = backward(program, cache, backend.from_numpy(seed_grad))
        _assert_matches(grads, reference)

    def test_bool_and_packed_modes_match_reference(self, backend_name):
        program, circuit = _program(seed=3)
        rng = np.random.default_rng(3)
        matrix = rng.random((32, program.input_width)) < 0.5
        reference = execute_bool(program, matrix, _numpy_reference())
        backend = xp.get_backend(backend_name)
        values = execute_bool(program, backend.from_numpy(matrix), backend)
        for net in circuit.outputs:
            _assert_matches(values[net], xp.to_numpy(reference[net]))
        packed_inputs = {
            name: rng.integers(0, 2**63, size=4, dtype=np.uint64)
            for name in program.cone_inputs
        }
        packed_ref = execute_packed(program, packed_inputs, _numpy_reference())
        packed = execute_packed(program, dict(packed_inputs), backend)
        for net in circuit.outputs:
            _assert_matches(packed[net], packed_ref[net])


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cnf_kernels_match_reference(self, backend_name, data):
        num_variables = data.draw(st.integers(1, 12), label="num_variables")
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_variables).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=0,
                    max_size=5,
                ),
                min_size=0,
                max_size=12,
            ),
            label="clauses",
        )
        formula = CNF(clauses, num_variables=num_variables, name="hyp-xp")
        batch = data.draw(st.integers(1, 33), label="batch")
        seed = data.draw(st.integers(0, 2**20), label="seed")
        matrix = np.random.default_rng(seed).random((batch, num_variables)) < 0.5
        plan = formula.evaluation_plan()
        numpy_backend = _numpy_reference()
        reference = plan.evaluate(matrix, numpy_backend)
        reference_counts = plan.unsatisfied_counts(matrix, numpy_backend)
        backend = xp.get_backend(backend_name)
        device_matrix = backend.from_numpy(matrix)
        _assert_matches(plan.evaluate(device_matrix, backend), reference)
        _assert_matches(plan.evaluate_packed(device_matrix, backend), reference)
        _assert_matches(
            plan.unsatisfied_counts(device_matrix, backend), reference_counts
        )


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestPackedPrimitives:
    """The uint8/uint64 word layer every packed kernel is built from."""

    def test_packbits_unpackbits_roundtrip(self, backend_name):
        backend = xp.get_backend(backend_name)
        matrix = np.random.default_rng(7).random((5, 27)) < 0.5
        packed = backend.packbits(
            backend.ascontiguousarray(backend.from_numpy(matrix)), axis=1
        )
        np.testing.assert_array_equal(
            xp.to_numpy(packed), np.packbits(matrix, axis=1)
        )
        words = np.packbits(matrix, axis=1).reshape(-1)
        unpacked = backend.unpackbits(backend.from_numpy(words), count=31)
        np.testing.assert_array_equal(
            xp.to_numpy(unpacked), np.unpackbits(words, count=31)
        )

    def test_bitwise_segment_reductions(self, backend_name):
        backend = xp.get_backend(backend_name)
        rng = np.random.default_rng(8)
        words = rng.integers(0, 256, size=(12, 3), dtype=np.uint8)
        offsets = np.array([0, 4, 4, 7], dtype=np.intp)
        reference = np.bitwise_or.reduceat(words, offsets, axis=0)
        result = backend.bitwise_or_reduceat(backend.from_numpy(words), offsets, axis=0)
        np.testing.assert_array_equal(xp.to_numpy(result), reference)
        reduced = backend.bitwise_and_reduce(backend.from_numpy(words), axis=0)
        np.testing.assert_array_equal(
            xp.to_numpy(reduced), np.bitwise_and.reduce(words, axis=0)
        )

    def test_uint64_words_roundtrip_as_bit_views(self, backend_name):
        backend = xp.get_backend(backend_name)
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        device = backend.asarray(words, dtype=backend.uint64_dtype)
        inverted = backend.bitwise_xor(device, backend.packed_ones_u64)
        _assert_matches(inverted, ~words)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSamplerEquivalence:
    """End-to-end: sampled solutions, their order, and timed_out must match."""

    @pytest.fixture()
    def formula(self, fig1_formula):
        return fig1_formula

    def _run(self, formula, spec):
        config = SamplerConfig(
            batch_size=64, seed=11, max_rounds=3, array_backend=spec
        )
        sampler = GradientSATSampler(formula, config=config)
        result = sampler.sample(num_solutions=40)
        return result

    def test_sampled_solutions_match_reference(self, backend_name, formula):
        reference = self._run(formula, "numpy")
        candidate = self._run(formula, backend_name)
        assert candidate.timed_out == reference.timed_out
        assert candidate.num_generated == reference.num_generated
        matrix_ref = reference.solution_matrix()
        matrix = candidate.solution_matrix()
        # Same stream (the RNG handle is threaded through the backend), so
        # the solutions AND their insertion order must line up.
        assert matrix.shape == matrix_ref.shape
        _assert_matches(matrix, matrix_ref)

    def test_restarts_are_reproducible(self, backend_name, formula):
        config = SamplerConfig(batch_size=32, seed=5, max_rounds=2, array_backend=backend_name)
        sampler = GradientSATSampler(formula, config=config)
        first = sampler.sample(num_solutions=30)
        sampler.reset_rng()
        second = sampler.sample(num_solutions=30)
        np.testing.assert_array_equal(
            first.solution_matrix(), second.solution_matrix()
        )
        assert first.num_generated == second.num_generated

    def test_circuit_sampler_restarts_are_reproducible(self, backend_name):
        circuit = random_circuit(
            np.random.default_rng(4), num_inputs=6, num_gates=20, num_outputs=2
        )
        config = SamplerConfig(batch_size=32, seed=3, max_rounds=2, array_backend=backend_name)
        sampler = CircuitSampler(circuit, config=config)
        first = sampler.sample(num_solutions=20)
        sampler.reset_rng()
        second = sampler.sample(num_solutions=20)
        np.testing.assert_array_equal(first.input_matrix(), second.input_matrix())


class TestActiveBackendDoesNotLeak:
    def test_sampler_restores_active_backend(self, fig1_formula):
        before = xp.active_backend()
        config = SamplerConfig(batch_size=16, seed=0, max_rounds=1, array_backend="numpy:float32")
        GradientSATSampler(fig1_formula, config=config).sample(num_solutions=5)
        assert xp.active_backend() is before
