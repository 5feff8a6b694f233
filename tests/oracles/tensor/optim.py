"""The gradient-descent step over the reference tape.

The paper trains with plain gradient descent (``lr = 10``, 5 iterations);
:class:`SGD` reproduces Eq. 10 (``x <- x - lr * dL/dx``), the step the
array-level loop of :mod:`repro.engine.train` is tested against.
"""

from __future__ import annotations

from typing import Iterable, List

from tests.oracles.tensor.tensor import Tensor


class Optimizer:
    """Base class: holds parameter tensors and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter tensor")
        for parameter in self.parameters:
            if not parameter.requires_grad:
                raise ValueError("all optimizer parameters must require gradients")

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain gradient descent (Eq. 10: ``x <- x - lr * dL/dx``)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 10.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            parameter.data = parameter.data - self.lr * parameter.grad
