"""Tests for the interpreter oracle's Eq. 8 loss and its all-ones target
matrix (the engine's own loss and gradient, ``Y - 1`` against the scalar
target, are pinned to them in ``tests/engine/test_train.py``)."""

import numpy as np
import pytest

from tests.oracles.interpreter import regression_loss, target_matrix
from tests.oracles.tensor.tensor import Tensor


class TestTargetMatrix:
    def test_defaults_to_ones(self):
        targets = target_matrix(3, ["o1", "o2"])
        assert targets.shape == (3, 2)
        assert targets.all()


class TestRegressionLoss:
    def test_zero_when_outputs_match(self):
        outputs = Tensor(np.ones((4, 2)))
        assert regression_loss(outputs, np.ones((4, 2))).item() == 0.0

    def test_counts_every_mismatch(self):
        outputs = Tensor(np.zeros((2, 3)))
        assert regression_loss(outputs, np.ones((2, 3))).item() == 6.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            regression_loss(Tensor(np.zeros((2, 2))), np.ones((2, 3)))

    def test_gradient_is_two_times_residual(self):
        outputs = Tensor(np.full((1, 2), 0.25), requires_grad=True)
        regression_loss(outputs, np.ones((1, 2))).backward()
        assert np.allclose(outputs.grad, 2 * (0.25 - 1.0) * np.ones((1, 2)))
