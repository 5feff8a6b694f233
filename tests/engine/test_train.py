"""The engine's array-level gradient step against the reference tape.

:mod:`repro.engine.train` is the library's only gradient-descent loop.  Its
``float32`` training steps (Eq. 10, plain SGD) must track the interpreter's
tape loop with identical thresholded assignments: to the last bits against
a ``float32`` tape, and to ``float32`` rounding against the ``float64``
reference tape.  The golden learning curves and rows in
``tests/engine/test_equivalence.py`` and ``tests/xp`` pin its bits.
"""

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.core.transform import transform_cnf
from repro.engine.train import descend
from tests.oracles.interpreter import InterpreterModel, regression_loss, target_matrix
from tests.oracles.tensor import optim as tape_optim
from tests.oracles.tensor.functional import sigmoid
from tests.oracles.tensor.tensor import Tensor

DTYPES = [np.float64, np.float32]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("instance", ["s15850a_3_2", "Prod-20"])
def test_descend_matches_the_interpreter_loop(instance, dtype):
    """``descend`` tracks the interpreter's tape loop, run in ``dtype``, step
    by step."""
    from repro.instances.registry import get_instance

    rng = np.random.default_rng(11)
    transform = transform_cnf(get_instance(instance).build_cnf())
    program = transform.round_plan.learn
    interpreter = InterpreterModel.from_transform(transform)
    config = SamplerConfig(learning_rate=10.0)
    # float64, like the sampler's draws: descend casts, the tape follows.
    start = rng.normal(size=(16, program.input_width))
    targets = target_matrix(16, program.output_nets)

    parameter = Tensor(start.astype(dtype), requires_grad=True)
    tape_optimizer = tape_optim.SGD([parameter], lr=config.learning_rate)
    steps = descend(program, start, config)
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
            # the runs.
            assert engine_loss == pytest.approx(loss.item(), rel=1e-4)
