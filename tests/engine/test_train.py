"""The engine's array-level gradient step against the reference tape.

:mod:`repro.engine.train` is the library's only gradient-descent loop.  Its
optimizers must reproduce the autodiff tape of :mod:`tests.oracles.tensor`
bit for bit, and its ``float32`` training steps must track the
interpreter's tape loop with identical thresholded assignments: to the last
bits against a ``float32`` tape, and to ``float32`` rounding against the
``float64`` reference tape.
"""

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.core.model import ProbabilisticCircuitModel
from repro.core.transform import transform_cnf
from repro.engine.train import OPTIMIZERS, Adam, SGD, descend
from tests.oracles.interpreter import InterpreterModel, regression_loss, target_matrix
from tests.oracles.tensor import optim as tape_optim
from tests.oracles.tensor.functional import sigmoid
from tests.oracles.tensor.tensor import Tensor

DTYPES = [np.float64, np.float32]


def _tape_trajectory(optimizer_class, start, grads, lr):
    parameter = Tensor(start.copy(), requires_grad=True)
    optimizer = optimizer_class([parameter], lr=lr)
    trajectory = []
    for grad in grads:
        parameter.grad = grad
        optimizer.step()
        trajectory.append(parameter.data)
    return trajectory


def _array_trajectory(optimizer, start, grads):
    parameter = start.copy()
    trajectory = []
    for grad in grads:
        parameter = optimizer.step(parameter, grad)
        trajectory.append(parameter)
    return trajectory


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "array_class, tape_class, lr",
    [(SGD, tape_optim.SGD, 10.0), (Adam, tape_optim.Adam, 0.5)],
    ids=["sgd", "adam"],
)
def test_optimizers_match_the_tape_bitwise(array_class, tape_class, lr, dtype):
    rng = np.random.default_rng(7)
    start = rng.normal(size=(6, 4)).astype(dtype)
    grads = [rng.normal(size=(6, 4)).astype(dtype) for _ in range(5)]
    expected = _tape_trajectory(tape_class, start, grads, lr)
    actual = _array_trajectory(array_class(lr), start, grads)
    for got, want in zip(actual, expected):
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


def test_optimizer_names_match_the_config_vocabulary():
    assert set(OPTIMIZERS) == {"sgd", "adam"}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("instance", ["s15850a_3_2", "Prod-20"])
def test_descend_matches_the_interpreter_loop(instance, optimizer, dtype):
    """``descend`` tracks the interpreter's tape loop, run in ``dtype``, step
    by step."""
    from repro.instances.registry import get_instance

    rng = np.random.default_rng(11)
    model = ProbabilisticCircuitModel.from_transform(
        transform_cnf(get_instance(instance).build_cnf())
    )
    interpreter = InterpreterModel.of(model)
    config = SamplerConfig(
        optimizer=optimizer, learning_rate=10.0 if optimizer == "sgd" else 0.5
    )
    # float64, like the sampler's draws: descend casts, the tape follows.
    start = rng.normal(size=(16, model.num_inputs))
    targets = target_matrix(16, model.output_nets)

    parameter = Tensor(start.astype(dtype), requires_grad=True)
    tape_optimizer = tape_optim.make_optimizer([parameter], optimizer, config.learning_rate)
    steps = descend(model.program, start, config)
    for _ in range(4):
        tape_optimizer.zero_grad()
        loss = regression_loss(interpreter(sigmoid(parameter)), targets)
        loss.backward()
        tape_optimizer.step()
        soft_inputs, engine_loss = next(steps)
        assert soft_inputs.dtype == np.float32
        # The thresholded bits — all a sampler keeps — must agree.
        assert np.array_equal(soft_inputs > 0.0, parameter.data > 0.0)
        if dtype is np.float32:
            # Reconvergent cones accumulate gradients in another order than
            # the tape, so soft values may differ in the last bits.
            tolerance = 16 * np.finfo(np.float32).eps
            np.testing.assert_allclose(
                soft_inputs, parameter.data, rtol=tolerance, atol=16 * tolerance
            )
            assert engine_loss == pytest.approx(loss.item(), rel=tolerance)
        else:
            # Against the float64 reference only float32 rounding separates
            # the runs.  Adam divides by a root of tiny second moments and
            # moves soft values further than SGD; the loss stays close.
            assert engine_loss == pytest.approx(loss.item(), rel=1e-4)
