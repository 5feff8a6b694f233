"""Native engine kernels pinned to the pure-NumPy executor paths.

Contract: ``float32`` forward outputs and the boolean mode are **bitwise**
identical; input gradients match within a few ``float32`` ulps
(the two tiers accumulate operand gradients in different orders); and a
fixed-seed end-to-end sampling run produces the byte-identical solution
stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, execute_bool, forward
from tests.engine.conftest import random_circuit
from tests.native.conftest import numpy_tier

#: A few float32 ulps at unit gradient scale (the accumulation-order slack).
GRAD_TOLERANCE = 1e-6


def _program(seed: int, num_gates: int = 60):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, num_inputs=7, num_gates=num_gates, num_outputs=3)
    return compile_circuit(circuit, list(circuit.outputs)), circuit


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestExecutorEquivalence:
    def test_forward_is_bitwise(self, tier, seed):
        program, _ = _program(seed)
        probabilities = np.random.default_rng(seed).random((16, program.input_width))
        with numpy_tier():
            reference, _ = forward(program, probabilities)
        outputs, cache = forward(program, probabilities)
        assert cache.__class__.__name__ == "NativeForwardCache"
        np.testing.assert_array_equal(outputs, reference)

    def test_backward_within_gradient_budget(self, tier, seed):
        program, _ = _program(seed)
        rng = np.random.default_rng(seed + 100)
        probabilities = rng.random((8, program.input_width))
        seed_grad = rng.random((8, len(program.output_nets)))
        with numpy_tier():
            _, cache = forward(program, probabilities)
            reference = backward(program, cache, seed_grad)
        _, cache = forward(program, probabilities)
        grads = backward(program, cache, seed_grad)
        np.testing.assert_allclose(grads, reference, rtol=0.0, atol=GRAD_TOLERANCE)

    def test_bool_mode_is_bitwise(self, tier, seed):
        program, circuit = _program(seed)
        matrix = np.random.default_rng(seed).random((33, program.input_width)) < 0.5
        with numpy_tier():
            reference = execute_bool(program, matrix)
        values = execute_bool(program, matrix)
        np.testing.assert_array_equal(
            values[program.output_slots], reference[program.output_slots]
        )


class TestFloat32Policy:
    def test_forward_is_bitwise_in_float32(self, tier):
        program, _ = _program(seed=5)
        probabilities = np.random.default_rng(5).random((16, program.input_width))
        probs32 = probabilities.astype(np.float32)
        with numpy_tier():
            reference, _ = forward(program, probs32)
        outputs, _ = forward(program, probs32)
        assert outputs.dtype == np.float32
        np.testing.assert_array_equal(outputs, reference)


class TestEndToEndSampling:
    """The acceptance contract: C-tier vs NumPy solution streams are identical."""

    def test_fixed_seed_sample_run_matches_python(self, tier, fig1_formula):
        config = SamplerConfig(batch_size=64, seed=11, max_rounds=3)

        def run():
            return sample_cnf(fig1_formula, num_solutions=40, config=config)

        with numpy_tier():
            reference = run()
        candidate = run()
        ref_matrix = reference.sample.solution_matrix()
        matrix = candidate.sample.solution_matrix()
        assert matrix.tobytes() == ref_matrix.tobytes()
        assert (
            candidate.sample.num_generated
            == reference.sample.num_generated
        )
