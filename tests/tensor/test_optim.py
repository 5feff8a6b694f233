"""Tests for the optimizers (tests.oracles.tensor.optim)."""

import numpy as np
import pytest

from tests.oracles.tensor.functional import square
from tests.oracles.tensor.optim import SGD, Optimizer
from tests.oracles.tensor.tensor import Tensor


class TestOptimizerBase:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=1.0)

    def test_rejects_non_grad_parameters(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0])], lr=1.0)

    def test_zero_grad(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        square(parameter).sum().backward()
        optimizer.zero_grad()
        assert parameter.grad is None

    def test_step_is_abstract(self):
        parameter = Tensor([1.0], requires_grad=True)
        with pytest.raises(NotImplementedError):
            Optimizer([parameter]).step()


class TestSGD:
    def test_eq10_update_rule(self):
        """x <- x - lr * dL/dx with L = x^2, x=3, lr=0.1 gives 3 - 0.1*6 = 2.4."""
        parameter = Tensor([3.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        square(parameter).sum().backward()
        optimizer.step()
        assert np.allclose(parameter.numpy(), [2.4])

    def test_converges_on_quadratic(self):
        parameter = Tensor([5.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.2)
        for _ in range(50):
            optimizer.zero_grad()
            square(parameter).sum().backward()
            optimizer.step()
        assert abs(parameter.item()) < 1e-3

    def test_invalid_hyperparameters(self):
        parameter = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.0)

    def test_skips_parameters_without_grad(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.5)
        optimizer.step()  # no backward yet; must not crash
        assert np.allclose(parameter.numpy(), [1.0])
