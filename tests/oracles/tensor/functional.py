"""Differentiable functional ops: sigmoid embedding, probabilistic gates, L2 loss.

The probabilistic relaxations follow Table I of the paper exactly:

==========  =======================================
Operator    Output probability
==========  =======================================
NOT         ``1 - p``
AND         ``p1 * p2 * ... * pn``
OR          ``1 - (1 - p1)(1 - p2)...(1 - pn)``
XOR         ``p1 (1 - p2) + (1 - p1) p2`` (chained)
XNOR        ``1 - XOR``
NAND/NOR    complement of AND/OR
==========  =======================================

The derivatives listed in Table I fall out of reverse-mode autodiff over these
expressions, so the sampler never hand-codes them (Eq. 9 is reproduced by the
engine; the unit tests check it symbolically).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from tests.oracles.tensor.tensor import Tensor, as_tensor, _make, mul, sub


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid, the continuous embedding of Eq. 6 (``P = sigma(V)``)."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad * out_data * (1.0 - out_data))

    return _make(out_data, (x,), backward, "sigmoid")


def square(x: Tensor) -> Tensor:
    """Elementwise square."""
    return mul(x, x)


def prob_buf(x: Tensor) -> Tensor:
    """Identity (buffer) gate."""
    return x


def prob_not(x: Tensor) -> Tensor:
    """Probabilistic NOT: ``1 - p`` (Table I)."""
    return sub(as_tensor(1.0, x), x)


def prob_and(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic AND: product of input probabilities (Table I)."""
    if not inputs:
        raise ValueError("AND requires at least one input")
    result = inputs[0]
    for operand in inputs[1:]:
        result = mul(result, operand)
    return result


def prob_or(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic OR: ``1 - prod(1 - p_i)`` (Table I)."""
    if not inputs:
        raise ValueError("OR requires at least one input")
    complement = prob_not(inputs[0])
    for operand in inputs[1:]:
        complement = mul(complement, prob_not(operand))
    return prob_not(complement)


def prob_nand(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic NAND."""
    return prob_not(prob_and(inputs))


def prob_nor(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic NOR."""
    return prob_not(prob_or(inputs))


def prob_xor(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic XOR, chained pairwise: ``p1 (1-p2) + (1-p1) p2`` (Table I)."""
    if not inputs:
        raise ValueError("XOR requires at least one input")
    result = inputs[0]
    for operand in inputs[1:]:
        left = mul(result, prob_not(operand))
        right = mul(prob_not(result), operand)
        result = left + right
    return result


def prob_xnor(inputs: Sequence[Tensor]) -> Tensor:
    """Probabilistic XNOR."""
    return prob_not(prob_xor(inputs))


def l2_loss(outputs: Tensor, targets: Tensor) -> Tensor:
    """The squared-error loss of Eq. 8: ``sum((Y - T)^2)`` over batch and outputs."""
    difference = sub(outputs, targets)
    return square(difference).sum()
