"""The float32 learning arrays: documented tolerance vs the float64 oracle.

The engine learns in ``float32``; the ``float64`` reference is the per-gate
interpreter oracle (:mod:`tests.oracles.interpreter`), whose tape follows
the dtype of its input.  These tests pin down and document how far the
engine may drift from it:

* forward output probabilities agree with float64 to ``5e-5`` absolute
  (probabilities live in [0, 1]; float32 has ~7 decimal digits, and a
  ~40-gate cone loses a couple more to accumulation);
* input gradients agree to ``5e-4`` relative-ish absolute slack (gradient
  chains multiply more terms, so the error budget is wider);
* sampled *solutions* usually still agree exactly — thresholding ``V > 0``
  absorbs tiny drift, and the golden and round-plan suites pin fixed-seed
  rows to the float64 oracle — but this is not guaranteed near decision
  boundaries, so this suite asserts validity end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.engine.compiler import compile_circuit
from repro.engine.executor import backward, forward
from tests.engine.conftest import random_circuit
from tests.oracles.interpreter import InterpreterModel
from tests.oracles.tensor.tensor import Tensor

#: Documented float32-vs-float64 agreement for forward probabilities.
FORWARD_TOLERANCE = 5e-5
#: Documented float32-vs-float64 agreement for input gradients.
GRADIENT_TOLERANCE = 5e-4


@pytest.fixture()
def circuit():
    return random_circuit(
        np.random.default_rng(21), num_inputs=6, num_gates=40, num_outputs=3
    )


@pytest.fixture()
def program(circuit):
    return compile_circuit(circuit, list(circuit.outputs))


@pytest.fixture()
def oracle(circuit, program):
    """The float64 interpreter over the program's input columns."""
    model = InterpreterModel(circuit, list(circuit.outputs))
    assert model.input_order == list(program.cone_inputs)
    return model


def test_float32_backend_uses_float32_arrays(program, fig1_formula, monkeypatch):
    probabilities = np.random.default_rng(0).random((8, program.input_width))
    outputs, cache = forward(program, probabilities)
    assert outputs.dtype == np.float32
    assert cache.values.dtype == np.float32
    grads = backward(program, cache, np.ones(outputs.shape))
    assert grads.dtype == np.float32
    # End to end: every GD iteration of a sampler sees float32.
    from repro.engine import train

    seen = set()
    original = train.sigmoid_embedding

    def spy(soft_inputs):
        seen.add(soft_inputs.dtype)
        return original(soft_inputs)

    monkeypatch.setattr(train, "sigmoid_embedding", spy)
    config = SamplerConfig(batch_size=16, seed=1, max_rounds=1)
    GradientSATSampler(fig1_formula, config=config).sample(num_solutions=4)
    assert seen == {np.dtype(np.float32)}


def test_forward_within_documented_tolerance(program, oracle):
    probabilities = np.random.default_rng(1).random((32, program.input_width))
    reference = oracle.forward(Tensor(probabilities)).data
    assert reference.dtype == np.float64
    outputs, _ = forward(program, probabilities)
    np.testing.assert_allclose(
        outputs.astype(np.float64), reference, rtol=0.0, atol=FORWARD_TOLERANCE
    )


def test_backward_within_documented_tolerance(program, oracle):
    rng = np.random.default_rng(2)
    probabilities = rng.random((16, program.input_width))
    seed_grad = rng.random((16, len(program.output_nets)))
    tensor = Tensor(probabilities, requires_grad=True)
    oracle.forward(tensor).backward(seed_grad)
    reference = tensor.grad
    assert reference.dtype == np.float64
    _, cache = forward(program, probabilities)
    grads = backward(program, cache, seed_grad)
    assert grads.dtype == np.float32
    np.testing.assert_allclose(
        grads.astype(np.float64), reference, rtol=0.0, atol=GRADIENT_TOLERANCE
    )


def test_tensor_layer_follows_the_policy():
    # The reference oracle's tape: the equivalence tests run it in float32
    # as well as float64, so it must not promote float32 to float64.
    from tests.oracles.tensor.functional import prob_not, sigmoid
    from tests.oracles.tensor.tensor import Tensor, full_like_batch

    tensor = Tensor(np.linspace(-3, 3, 7, dtype=np.float32), requires_grad=True)
    out = sigmoid(tensor)
    assert out.data.dtype == np.float32
    # Plain operands (scalars, float64 arrays, constants) adopt the
    # tensor's dtype instead of promoting the tape to float64.
    mixed = prob_not(out) * 2.0 - np.ones(7) + (-out)
    assert mixed.data.dtype == np.float32
    loss = (mixed * full_like_batch(7, 1.0, np.float32)).sum()
    assert loss.data.dtype == np.float32
    loss.backward()
    assert tensor.grad.dtype == np.float32
    assert Tensor(np.arange(3)).data.dtype == np.float64


def test_sampler_produces_valid_solutions_under_float32(fig1_formula):
    config = SamplerConfig(batch_size=64, seed=13, max_rounds=3)
    result = GradientSATSampler(fig1_formula, config=config).sample(num_solutions=30)
    matrix = result.solution_matrix()
    assert result.num_unique > 0
    # Everything the run reports as a solution must really satisfy
    # the formula (validated in float-free boolean arithmetic).
    assert fig1_formula.evaluate_batch(matrix).all()
