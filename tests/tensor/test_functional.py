"""Tests for the probabilistic gate relaxations (tests.oracles.tensor.functional).

Table I of the paper defines both the forward probabilities and the
derivatives of each operator; the tests check the forward values at the
boolean corner points, the probabilistic values in between, and that the
autodiff gradients equal the closed-form derivatives of Table I.
"""

import numpy as np
import pytest

from tests.oracles.tensor.functional import (
    l2_loss,
    prob_and,
    prob_buf,
    prob_nand,
    prob_nor,
    prob_not,
    prob_or,
    prob_xnor,
    prob_xor,
    sigmoid,
    square,
)
from tests.oracles.tensor.tensor import Tensor


class TestSigmoid:
    def test_values(self):
        result = sigmoid(Tensor([0.0, 100.0, -100.0]))
        assert np.allclose(result.numpy(), [0.5, 1.0, 0.0], atol=1e-6)

    def test_gradient(self):
        x = Tensor([0.0], requires_grad=True)
        sigmoid(x).sum().backward()
        assert np.allclose(x.grad, [0.25])  # sigma'(0) = 0.25


class TestGateCornerPoints:
    @pytest.mark.parametrize(
        "gate, table",
        [
            (prob_and, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
            (prob_or, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
            (prob_nand, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
            (prob_nor, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}),
            (prob_xor, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
            (prob_xnor, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
        ],
    )
    def test_binary_gate_matches_boolean_truth_table(self, gate, table):
        for (a, b), expected in table.items():
            result = gate([Tensor([float(a)]), Tensor([float(b)])])
            assert np.allclose(result.numpy(), [float(expected)])

    def test_not_and_buf(self):
        assert np.allclose(prob_not(Tensor([0.0, 1.0])).numpy(), [1.0, 0.0])
        assert np.allclose(prob_buf(Tensor([0.25])).numpy(), [0.25])


class TestGateProbabilisticSemantics:
    def test_and_is_product(self):
        result = prob_and([Tensor([0.5]), Tensor([0.4]), Tensor([0.25])])
        assert np.allclose(result.numpy(), [0.05])

    def test_or_is_complement_of_product(self):
        result = prob_or([Tensor([0.5]), Tensor([0.5])])
        assert np.allclose(result.numpy(), [0.75])

    def test_xor_table1_formula(self):
        p1, p2 = 0.3, 0.8
        result = prob_xor([Tensor([p1]), Tensor([p2])])
        assert np.allclose(result.numpy(), [p1 * (1 - p2) + (1 - p1) * p2])

    def test_nary_xor_is_chained(self):
        values = [0.2, 0.7, 0.6]
        result = prob_xor([Tensor([v]) for v in values])
        chained = values[0]
        for value in values[1:]:
            chained = chained * (1 - value) + (1 - chained) * value
        assert np.allclose(result.numpy(), [chained])

    def test_empty_inputs_rejected(self):
        for gate in (prob_and, prob_or, prob_xor):
            with pytest.raises(ValueError):
                gate([])


class TestTable1Derivatives:
    """The autodiff gradients must equal the closed-form derivatives of Table I."""

    def test_and_derivative(self):
        p1 = Tensor([0.3], requires_grad=True)
        p2 = Tensor([0.8], requires_grad=True)
        prob_and([p1, p2]).sum().backward()
        assert np.allclose(p1.grad, [0.8])   # dPy/dP1 = P2
        assert np.allclose(p2.grad, [0.3])   # dPy/dP2 = P1

    def test_or_derivative(self):
        p1 = Tensor([0.3], requires_grad=True)
        p2 = Tensor([0.8], requires_grad=True)
        prob_or([p1, p2]).sum().backward()
        assert np.allclose(p1.grad, [1 - 0.8])  # dPy/dP1 = 1 - P2 (= "P2 bar" in Table I)
        assert np.allclose(p2.grad, [1 - 0.3])

    def test_not_derivative(self):
        p = Tensor([0.4], requires_grad=True)
        prob_not(p).sum().backward()
        assert np.allclose(p.grad, [-1.0])

    def test_xor_derivative(self):
        p1 = Tensor([0.3], requires_grad=True)
        p2 = Tensor([0.8], requires_grad=True)
        prob_xor([p1, p2]).sum().backward()
        assert np.allclose(p1.grad, [1 - 2 * 0.8])  # 1 - 2 P2
        assert np.allclose(p2.grad, [1 - 2 * 0.3])

    def test_xnor_derivative(self):
        p1 = Tensor([0.3], requires_grad=True)
        p2 = Tensor([0.8], requires_grad=True)
        prob_xnor([p1, p2]).sum().backward()
        assert np.allclose(p1.grad, [2 * 0.8 - 1])  # 2 P2 - 1
        assert np.allclose(p2.grad, [2 * 0.3 - 1])


class TestLoss:
    def test_square(self):
        assert np.allclose(square(Tensor([3.0])).numpy(), [9.0])

    def test_l2_loss_value(self):
        outputs = Tensor([[0.5, 1.0]])
        targets = Tensor([[1.0, 1.0]])
        assert np.allclose(l2_loss(outputs, targets).item(), 0.25)

    def test_l2_loss_gradient_matches_eq9_shape(self):
        """Eq. 9: dL/dY = 2 (Y - T)."""
        outputs = Tensor([[0.25, 0.75]], requires_grad=True)
        targets = Tensor([[1.0, 0.0]])
        l2_loss(outputs, targets).backward()
        assert np.allclose(outputs.grad, [[2 * (0.25 - 1.0), 2 * (0.75 - 0.0)]])
