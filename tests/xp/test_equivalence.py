"""A leftover ``REPRO_ARRAY_BACKEND`` changes nothing; the golden rows.

``REPRO_ARRAY_BACKEND`` used to pick the float dtype of the learning
arrays.  Learning is ``float32`` now and the variable is not read, so a
shell that still exports one of the old ``float64`` specs (``numpy``,
``numpy:float64``) must see the same engine passes, boolean execution, CNF kernel results and sampled solutions as one that does not.
The golden stream at the bottom pins the fixed-seed solution rows of the
engine and of the interpreter oracle in both dtypes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, execute_bool, forward
from tests.engine.conftest import random_circuit
from tests.oracles.cnf import evaluate_batch_reference
from tests.oracles.interpreter import use_interpreter

#: The retired dtype switch and the float64 specs it used to accept.
RETIRED_ENV_VAR = "REPRO_ARRAY_BACKEND"
BACKENDS = ["numpy", "numpy:float64"]


def _program(seed: int = 0, num_gates: int = 40):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=6, num_gates=num_gates, num_outputs=3)
    return compile_circuit(circuit, list(circuit.outputs)), circuit


@pytest.fixture()
def spec_default(monkeypatch, backend_name):
    """Leave ``backend_name`` in the retired variable for the test."""
    monkeypatch.setenv(RETIRED_ENV_VAR, backend_name)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestEngineEquivalence:
    """float64 input under an old float64 spec still runs in float32."""

    def test_forward_matches_reference(self, backend_name, spec_default):
        program, _ = _program(seed=1)
        probabilities = np.random.default_rng(1).random((16, program.input_width))
        reference, _ = forward(program, probabilities.astype(np.float32))
        outputs, _ = forward(program, probabilities)
        assert outputs.dtype == np.float32
        np.testing.assert_array_equal(outputs, reference)

    def test_backward_matches_reference(self, backend_name, spec_default):
        program, _ = _program(seed=2)
        rng = np.random.default_rng(2)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        _, cache_ref = forward(program, probabilities.astype(np.float32))
        reference = backward(program, cache_ref, seed_grad.astype(np.float32))
        _, cache = forward(program, probabilities)
        grads = backward(program, cache, seed_grad)
        assert grads.dtype == np.float32
        np.testing.assert_array_equal(grads, reference)

    def test_bool_mode_matches_reference(self, backend_name, spec_default):
        program, circuit = _program(seed=3)
        rng = np.random.default_rng(3)
        matrix = rng.random((32, program.input_width)) < 0.5
        values = execute_bool(program, matrix)
        probabilities, _ = forward(program, matrix)
        assert program.output_nets == list(circuit.outputs)
        for column, slot in enumerate(program.output_slots.tolist()):
            # Boolean execution is the probabilistic pass on 0/1 inputs.
            np.testing.assert_array_equal(values[slot], probabilities[:, column] == 1.0)


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
            patch.setenv(RETIRED_ENV_VAR, backend_name)
            reference = evaluate_batch_reference(formula, matrix)
            np.testing.assert_array_equal(plan.evaluate(matrix), reference)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestPackedPrimitives:
    """The retired packed CNF kernel stays retired under each old spec."""

    def test_packbits_unpackbits_roundtrip(self, backend_name, spec_default):
        # The bit-packed CNF kernel is deleted (it lost to the compiled one
        # on variable-major rows) and so is the backend knob that named it;
        # asking for it fails.
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


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSamplerEquivalence:
    """End-to-end: sampled solutions, their order, and timed_out must match."""

    @pytest.fixture()
    def formula(self, fig1_formula):
        return fig1_formula

    @staticmethod
    def _run(formula):
        config = SamplerConfig(batch_size=64, seed=11, max_rounds=3)
        return GradientSATSampler(formula, config=config).sample(num_solutions=40)

    def test_sampled_solutions_match_reference(self, backend_name, formula, monkeypatch):
        reference = self._run(formula)
        monkeypatch.setenv(RETIRED_ENV_VAR, backend_name)
        candidate = self._run(formula)
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

    def test_restarts_are_reproducible(self, backend_name, formula, spec_default):
        config = SamplerConfig(batch_size=32, seed=5, max_rounds=2)
        sampler = GradientSATSampler(formula, config=config)
        first = sampler.sample(num_solutions=30)
        sampler.reset_rng()
        second = sampler.sample(num_solutions=30)
        np.testing.assert_array_equal(
            first.solution_matrix(), second.solution_matrix()
        )
        assert first.num_generated == second.num_generated


#: SHA-256 of the ``uint8`` solution matrix (251 x 1680) of s15850a_3_2 under
#: ``SamplerConfig(seed=7, batch_size=128, max_rounds=3)``, 200 solutions.
#: Identical on the float32 engine (the C kernels) and on the reference
#: interpreter oracle in float64 and in float32.  Only the rows are pinned:
#: the losses go through SIMD ``exp`` and can differ in the last bits
#: across CPUs.
GOLDEN_ROWS_SHA256 = "2b03dd0a90ba234c4186912f1184fcd37545e40e27e8bad41114b4d858939d49"


@pytest.fixture(scope="module")
def s15850a():
    from repro.instances.registry import get_instance

    return get_instance("s15850a_3_2").build_cnf()


@pytest.mark.parametrize("learner", ["engine", "interpreter"], indirect=True)
@pytest.mark.parametrize("spec", ["numpy", "numpy:float32"])
def test_golden_solution_stream(s15850a, spec, learner, monkeypatch):
    """``spec`` is a retired dtype spec: left in ``REPRO_ARRAY_BACKEND`` it
    changes nothing, and the interpreter oracle learns in the dtype it
    named (``numpy`` = float64)."""
    from repro.core.pipeline import sample_cnf

    monkeypatch.setenv(RETIRED_ENV_VAR, spec)
    if learner == "interpreter":
        use_interpreter(monkeypatch, np.float32 if spec == "numpy:float32" else np.float64)
    config = SamplerConfig(seed=7, batch_size=128, max_rounds=3)
    result = sample_cnf(s15850a, num_solutions=200, config=config)
    rows = np.ascontiguousarray(result.sample.solution_matrix().astype(np.uint8))
    assert rows.shape == (251, 1680)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GOLDEN_ROWS_SHA256
