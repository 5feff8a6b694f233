"""Engine-vs-reference equivalence: forward, backward, and sampled solutions.

The compiled engine runs in ``float32``.  On ``float32`` input it is
specified to be *bitwise identical* to the per-gate autodiff interpreter kept
as the reference oracle (:mod:`tests.oracles.interpreter`) on the forward
pass and to match its input gradients to ``GRAD_TOLERANCE`` (reconvergent
fanout accumulates gradients in another order than the tape, so the last
bits may differ).  Its gradients also match finite differences of the
``float64`` oracle.

The sampler-level tests run each fixed-seed configuration on the engine and
again with the oracle's learning loops installed, and also pin the engine's
output to golden values recorded while the interpreter was still a library
backend, so a change that moved both paths together is caught too.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.transform import transform_cnf
from repro.engine.compiler import compiled_program_for
from repro.engine.executor import backward, forward
from tests.engine.conftest import random_circuit
from tests.oracles.interpreter import InterpreterModel, use_interpreter
from tests.oracles.tensor.tensor import Tensor

#: A few float32 ulps at unit gradient scale (the accumulation-order slack).
GRAD_TOLERANCE = 1e-6

#: SHA-256 of the fig1 solution matrix (28 x 14, bool) under
#: ``SamplerConfig(batch_size=48, max_rounds=3, seed=1234)``, 30 solutions —
#: the same for every ``chunk_size``.
FIG1_ROWS_SHA256 = "5956b847733f03a7ddc16252ef9e2db40014b4d7ce631661ac29472d1aa32665"
#: xor chain, ``SamplerConfig(batch_size=32, max_rounds=2, seed=7)`` (2 x 3).
XOR_ROWS_SHA256 = "6d1bccaa2d62ae6f83d99207620a37e3518e35594179767dc1a5e12b72e7c5a6"


def _compare_forward_backward(circuit, outputs, rng, batch=8):
    interpreter = InterpreterModel(circuit, output_nets=outputs)
    program = compiled_program_for(circuit, outputs, interpreter.input_order)
    probabilities = rng.random((batch, program.input_width)).astype(np.float32)
    out_e, cache = forward(program, probabilities)
    tensor_i = Tensor(probabilities.copy(), requires_grad=True)
    out_i = interpreter.forward(tensor_i)
    assert np.array_equal(out_e, out_i.data), "forward passes diverged"
    seed_grad = rng.random(out_e.shape).astype(np.float32)
    grad_e = backward(program, cache, seed_grad)
    out_i.backward(seed_grad)
    assert tensor_i.grad is not None
    np.testing.assert_allclose(grad_e, tensor_i.grad, rtol=0.0, atol=GRAD_TOLERANCE)


class TestForwardBackwardEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_circuits(self, seed):
        rng = np.random.default_rng(1000 + seed)
        circuit = random_circuit(rng, num_inputs=5, num_gates=35, num_outputs=3)
        _compare_forward_backward(circuit, list(circuit.outputs), rng)

    def test_fig1_cone(self, fig1_formula, rng):
        transform = transform_cnf(fig1_formula)
        program = transform.round_plan.learn
        interpreter = InterpreterModel.from_transform(transform)
        probabilities = rng.random((16, program.input_width)).astype(np.float32)
        out_e, cache = forward(program, probabilities)
        tensor_i = Tensor(probabilities.copy(), requires_grad=True)
        out_i = interpreter.forward(tensor_i)
        assert np.array_equal(out_e, out_i.data)
        grad_e = backward(program, cache, np.ones_like(out_e))
        out_i.sum().backward()
        np.testing.assert_allclose(grad_e, tensor_i.grad, rtol=0.0, atol=GRAD_TOLERANCE)

    def test_gradients_match_finite_differences(self, rng):
        circuit = random_circuit(rng, num_inputs=4, num_gates=12, num_outputs=2)
        reference = InterpreterModel(circuit, list(circuit.outputs))
        program = compiled_program_for(circuit, reference.output_nets, reference.input_order)
        base = rng.random((1, program.input_width)) * 0.8 + 0.1
        outputs, cache = forward(program, base)
        grad = backward(program, cache, np.ones_like(outputs))

        def total(probabilities):  # the float64 oracle's forward
            return reference.forward(Tensor(probabilities)).data.sum()

        step = 1e-6
        for column in range(program.input_width):
            bumped = base.copy()
            bumped[0, column] += step
            numeric = (total(bumped) - total(base)) / step
            assert grad[0, column] == pytest.approx(numeric, abs=1e-4)


def _on_both_learners(monkeypatch, run):
    """``run()`` on the engine, then with the interpreter oracle installed."""
    engine = run()
    with monkeypatch.context() as patch:
        use_interpreter(patch)
        reference = run()
    return engine, reference


class TestSamplerEquivalence:
    @staticmethod
    def _solution_digest(formula, config):
        result = GradientSATSampler(formula, config=config).sample(num_solutions=30)
        return hashlib.sha256(result.solution_matrix().tobytes()).hexdigest()

    @pytest.mark.parametrize(
        "chunk_size", [0, 17, 8], ids=["device0", "device1", "device2"]
    )
    def test_bitwise_identical_solutions(self, fig1_formula, chunk_size, monkeypatch):
        config = SamplerConfig(batch_size=48, max_rounds=3, seed=1234, chunk_size=chunk_size)
        digests = _on_both_learners(
            monkeypatch, lambda: self._solution_digest(fig1_formula, config)
        )
        assert digests == (FIG1_ROWS_SHA256, FIG1_ROWS_SHA256)

    def test_bitwise_identical_solutions_xor(self, xor_chain_formula, monkeypatch):
        config = SamplerConfig(batch_size=32, max_rounds=2, seed=7)
        digests = _on_both_learners(
            monkeypatch, lambda: self._solution_digest(xor_chain_formula, config)
        )
        assert digests == (XOR_ROWS_SHA256, XOR_ROWS_SHA256)

    def test_learning_curves_identical(self, fig1_formula, monkeypatch):
        config = SamplerConfig(batch_size=32, seed=5)
        curves = _on_both_learners(
            monkeypatch,
            lambda: GradientSATSampler(fig1_formula, config=config).learning_curve(
                max_iterations=4
            ),
        )
        assert curves == ([10, 26, 28, 29, 29], [10, 26, 28, 29, 29])


#: Fig. 3 learning curves (unique valid solutions after each of 6 GD
#: iterations) at ``SamplerConfig(batch_size=256, seed=3)``, recorded in
#: float32 from the tape-based loop the engine step replaced; the float64
#: reference gives the same curves.
GOLDEN_LEARNING_CURVES = {
    "s15850a_3_2": [241, 484, 728, 977, 1226, 1476, 1727],
    "Prod-20": [76, 192, 321, 459, 605, 754, 898],
    "Prod-32": [71, 77, 88, 98, 110, 126, 143],
    "75-10-1-q": [132, 370, 624, 879, 1135, 1391, 1647],
    "or-50-10-7-UC-10": [251, 503, 755, 1007, 1259, 1511, 1761],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LEARNING_CURVES))
def test_golden_learning_curves(name):
    from repro.instances.registry import get_instance

    formula = get_instance(name).build_cnf()
    config = SamplerConfig(batch_size=256, seed=3)
    sampler = GradientSATSampler(formula, transform=transform_cnf(formula), config=config)
    assert sampler.learning_curve(6) == GOLDEN_LEARNING_CURVES[name]
