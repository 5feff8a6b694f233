"""Spec-equivalence suite: every float64 spec against the float64 reference.

Parametrised over the ``float64`` specs (``numpy`` and ``numpy:float64``).
The contract: engine forward passes and input gradients run on arrays of the
spec's dtype, boolean/packed execution and CNF kernel results under the
spec's process default, and end-to-end sampled solutions all match the
default ``float64`` reference bitwise.  The golden streams at the bottom pin
the fixed-seed solution rows of both dtype policies.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf.formula import CNF
from repro.core.circuit_sampler import CircuitSampler
from repro.core.config import ARRAY_BACKEND_ENV_VAR, SamplerConfig, array_dtype
from repro.core.sampler import GradientSATSampler
from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, execute_bool, execute_packed, forward
from tests.engine.conftest import random_circuit
from tests.oracles.cnf import (
    evaluate_batch_reference,
    unsatisfied_clause_counts_reference,
)

BACKENDS = ["numpy", "numpy:float64"]


def _program(seed: int = 0, num_gates: int = 40):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=6, num_gates=num_gates, num_outputs=3)
    return compile_circuit(circuit, list(circuit.outputs)), circuit


@pytest.fixture()
def spec_default(monkeypatch, backend_name):
    """Make ``backend_name`` the process default for the test."""
    monkeypatch.setenv(ARRAY_BACKEND_ENV_VAR, backend_name)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestEngineEquivalence:
    def test_forward_matches_reference(self, backend_name):
        program, _ = _program(seed=1)
        probabilities = np.random.default_rng(1).random((16, program.input_width))
        reference, _ = forward(program, probabilities)
        outputs, _ = forward(program, probabilities.astype(array_dtype(backend_name)))
        np.testing.assert_array_equal(outputs, reference)

    def test_backward_matches_reference(self, backend_name):
        program, _ = _program(seed=2)
        rng = np.random.default_rng(2)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        _, cache_ref = forward(program, probabilities)
        reference = backward(program, cache_ref, seed_grad)
        dtype = array_dtype(backend_name)
        _, cache = forward(program, probabilities.astype(dtype))
        grads = backward(program, cache, seed_grad.astype(dtype))
        np.testing.assert_array_equal(grads, reference)

    def test_bool_and_packed_modes_match_reference(self, backend_name, spec_default):
        program, circuit = _program(seed=3)
        rng = np.random.default_rng(3)
        matrix = rng.random((32, program.input_width)) < 0.5
        values = execute_bool(program, matrix)
        probabilities, _ = forward(program, matrix)
        for column, net in enumerate(circuit.outputs):
            # Boolean execution is the probabilistic pass on 0/1 inputs.
            np.testing.assert_array_equal(
                values[program.net_slot[net]], probabilities[:, column] == 1.0
            )
        packed_inputs = {
            name: rng.integers(0, 2**63, size=4, dtype=np.uint64)
            for name in program.cone_inputs
        }
        packed = execute_packed(program, dict(packed_inputs))
        lane_bits = {
            name: np.unpackbits(words.view(np.uint8), bitorder="little")
            for name, words in packed_inputs.items()
        }
        unpacked = np.zeros((256, program.input_width), dtype=bool)
        for name, bits in lane_bits.items():
            unpacked[:, program.input_columns[program.cone_inputs.index(name)]] = bits
        expected = execute_bool(program, unpacked)
        for net in circuit.outputs:
            np.testing.assert_array_equal(
                np.unpackbits(packed[net].view(np.uint8), bitorder="little").astype(bool),
                expected[program.net_slot[net]],
            )


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
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(ARRAY_BACKEND_ENV_VAR, backend_name)
            reference = evaluate_batch_reference(formula, matrix)
            counts = unsatisfied_clause_counts_reference(formula, matrix)
            np.testing.assert_array_equal(plan.evaluate(matrix), reference)
            np.testing.assert_array_equal(plan.unsatisfied_counts(matrix), counts)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestPackedPrimitives:
    """The uint8/uint64 word layer of the packed kernels, under each spec."""

    def test_packbits_unpackbits_roundtrip(self, backend_name, spec_default):
        # The bit-packed CNF kernel is deleted (it lost to the compiled one
        # on variable-major rows) and so is the backend knob that named it;
        # under every spec, asking for it fails.
        formula = CNF([[1, -2], [2, 3, -4], [-1, 4]], num_variables=4)
        matrix = np.random.default_rng(7).random((27, 4)) < 0.5
        with pytest.raises(TypeError, match="backend"):
            formula.evaluate_batch(matrix, backend="packed")

    def test_bitwise_segment_reductions(self, backend_name, spec_default, monkeypatch):
        # Neither the plan method nor the environment default survives: the
        # variable is no longer read, so "packed" there changes nothing.
        formula = CNF([[1], [-2, 3], [1, -3, 4], [-1, 2, -4, 5]], num_variables=5)
        matrix = np.random.default_rng(8).random((40, 5)) < 0.5
        assert not hasattr(formula.evaluation_plan(), "evaluate_packed")
        monkeypatch.setenv("REPRO_CNF_BACKEND", "packed")
        np.testing.assert_array_equal(
            formula.evaluate_batch(matrix), evaluate_batch_reference(formula, matrix)
        )

    def test_uint64_words_roundtrip_as_bit_views(self, backend_name, spec_default):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit("inv")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.set_output("y")
        program = compile_circuit(circuit, ["y"])
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(execute_packed(program, {"a": words})["y"], ~words)


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
        reference = self._run(formula, None)
        candidate = self._run(formula, backend_name)
        assert candidate.timed_out == reference.timed_out
        assert candidate.num_generated == reference.num_generated
        # Same stream and same dtype, so the solutions AND their insertion
        # order must line up.
        np.testing.assert_array_equal(
            candidate.solution_matrix(), reference.solution_matrix()
        )
        assert [r.loss_history for r in candidate.rounds] == [
            r.loss_history for r in reference.rounds
        ]

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
    def test_sampler_restores_active_backend(self, fig1_formula, monkeypatch):
        # A float32 run leaves no process state behind: a default sampler
        # afterwards still learns in float64.
        from repro.engine import train

        monkeypatch.delenv(ARRAY_BACKEND_ENV_VAR, raising=False)
        config = SamplerConfig(batch_size=16, seed=0, max_rounds=1, array_backend="numpy:float32")
        GradientSATSampler(fig1_formula, config=config).sample(num_solutions=5)
        seen = set()
        original = train.sigmoid_embedding

        def spy(soft_inputs):
            seen.add(soft_inputs.dtype)
            return original(soft_inputs)

        monkeypatch.setattr(train, "sigmoid_embedding", spy)
        GradientSATSampler(fig1_formula, config=config.with_(array_backend=None)).sample(5)
        assert seen == {np.dtype(np.float64)}


#: SHA-256 of the ``uint8`` solution matrix (251 x 1680) of s15850a_3_2 under
#: ``SamplerConfig(seed=7, batch_size=128, max_rounds=3)``, 200 solutions.
#: Identical for both dtype policies, on the engine — on the platform's
#: tier and on the NumPy tier forced (the ``engine_tier`` fixture) — and on
#: the reference interpreter oracle (the ``learner`` fixture).  Only the
#: rows are pinned: the losses go through SIMD ``exp`` and can differ in the
#: last bits across CPUs.
GOLDEN_ROWS_SHA256 = "2b03dd0a90ba234c4186912f1184fcd37545e40e27e8bad41114b4d858939d49"


@pytest.fixture(scope="module")
def s15850a():
    from repro.instances.registry import get_instance

    return get_instance("s15850a_3_2").build_cnf()


@pytest.mark.parametrize(
    ("learner", "engine_tier"),
    [
        pytest.param("engine", "platform", id="engine"),
        pytest.param("engine", "numpy", id="engine-numpy_tier"),
        pytest.param("interpreter", "platform", id="interpreter"),
    ],
    indirect=True,
)
@pytest.mark.parametrize("spec", ["numpy", "numpy:float32"])
def test_golden_solution_stream(s15850a, spec, learner, engine_tier):
    from repro.core.pipeline import sample_cnf

    config = SamplerConfig(seed=7, batch_size=128, max_rounds=3, array_backend=spec)
    result = sample_cnf(s15850a, num_solutions=200, config=config)
    rows = np.ascontiguousarray(result.sample.solution_matrix().astype(np.uint8))
    assert rows.shape == (251, 1680)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GOLDEN_ROWS_SHA256
