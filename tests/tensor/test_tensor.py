"""Tests for the autodiff engine (tests.oracles.tensor.tensor)."""

import numpy as np
import pytest

from tests.oracles.tensor.tensor import (
    Tensor,
    grad_enabled,
    no_grad,
    stack_columns,
    take_column,
)


class TestTensorBasics:
    def test_construction_and_shape(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4

    def test_item_and_numpy(self):
        assert Tensor(3.5).item() == 3.5
        assert np.array_equal(Tensor([1.0, 2.0]).numpy(), [1.0, 2.0])

    def test_detach_cuts_graph(self):
        tensor = Tensor([1.0], requires_grad=True)
        detached = tensor.detach()
        assert not detached.requires_grad

    def test_no_grad_context(self):
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
            inside = Tensor([1.0], requires_grad=True)
            assert not inside.requires_grad
        assert grad_enabled()


class TestArithmeticForward:
    def test_add_sub_mul(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).numpy(), [4.0, 6.0])
        assert np.allclose((a - b).numpy(), [-2.0, -2.0])
        assert np.allclose((a * b).numpy(), [3.0, 8.0])

    def test_scalar_broadcasting(self):
        a = Tensor([[1.0, 2.0]])
        assert np.allclose((1.0 - a).numpy(), [[0.0, -1.0]])
        assert np.allclose((a * 2.0).numpy(), [[2.0, 4.0]])
        assert np.allclose((2.0 + a).numpy(), [[3.0, 4.0]])

    def test_neg_and_pow(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).numpy(), [-2.0, 3.0])
        assert np.allclose((a**2).numpy(), [4.0, 9.0])

    def test_sum_and_mean(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10.0
        assert a.mean().item() == 2.5
        assert np.allclose(a.sum(axis=0).numpy(), [4.0, 6.0])


class TestBackward:
    def test_add_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_chain_rule(self):
        a = Tensor([2.0], requires_grad=True)
        loss = ((a * a) + a).sum()   # d/da (a^2 + a) = 2a + 1 = 5
        loss.backward()
        assert np.allclose(a.grad, [5.0])

    def test_broadcast_gradient_unbroadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        loss = (1.0 - a).sum()
        loss.backward()
        assert np.allclose(a.grad, -np.ones((2, 2)))

    def test_reused_tensor_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * a * a).sum()     # derivative 3a^2 = 3
        loss.backward()
        assert np.allclose(a.grad, [3.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_twice_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        assert np.allclose(a.grad, 2 * first)

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_sum_axis_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))


class TestColumnOps:
    def test_take_column_forward(self):
        matrix = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(take_column(matrix, 1).numpy(), [2.0, 4.0])

    def test_take_column_gradient_scatters(self):
        matrix = Tensor(np.ones((2, 3)), requires_grad=True)
        take_column(matrix, 2).sum().backward()
        expected = np.zeros((2, 3))
        expected[:, 2] = 1.0
        assert np.allclose(matrix.grad, expected)

    def test_take_column_rejects_1d(self):
        with pytest.raises(ValueError):
            take_column(Tensor([1.0, 2.0]), 0)

    def test_stack_columns_forward_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        stacked = stack_columns([a, b])
        assert stacked.shape == (2, 2)
        stacked.sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_stack_columns_requires_input(self):
        with pytest.raises(ValueError):
            stack_columns([])

    def test_take_then_stack_roundtrip(self):
        matrix = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        rebuilt = stack_columns([take_column(matrix, i) for i in range(3)])
        assert np.allclose(rebuilt.numpy(), matrix.numpy())
        rebuilt.sum().backward()
        assert np.allclose(matrix.grad, np.ones((2, 3)))
