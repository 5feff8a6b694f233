"""Gradient-based optimizers over the reference tape.

The paper trains with plain gradient descent (``lr = 10``, 5 iterations);
:class:`SGD` reproduces Eq. 10 (``x <- x - lr * dL/dx``).  :class:`Adam` is
provided because the ablation benchmarks explore optimizer sensitivity.
The array-level optimizers of :mod:`repro.engine.train` are tested against
these, bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

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


def make_optimizer(parameters: Iterable[Tensor], name: str, lr: float) -> "Optimizer":
    """Build the optimizer a sampler config names (single dispatch point).

    Every interpreter learning loop of :mod:`tests.oracles.interpreter`
    resolves its optimizer here.
    """
    if name == "adam":
        return Adam(parameters, lr=lr)
    if name == "sgd":
        return SGD(parameters, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) over the same parameter interface."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.1,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        # Keyed by parameter *position*: id() keys can be recycled after a
        # tensor is freed, silently inheriting stale moments.
        self._first_moment: Dict[int, Any] = {}
        self._second_moment: Dict[int, Any] = {}

    def step(self) -> None:
        self._step_count += 1
        for key, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            first = self._first_moment.get(key)
            second = self._second_moment.get(key)
            if first is None:
                first = np.zeros_like(parameter.data)
                second = np.zeros_like(parameter.data)
            first = self.beta1 * first + (1.0 - self.beta1) * parameter.grad
            second = self.beta2 * second + (1.0 - self.beta2) * parameter.grad**2
            self._first_moment[key] = first
            self._second_moment[key] = second
            first_hat = first / (1.0 - self.beta1**self._step_count)
            second_hat = second / (1.0 - self.beta2**self._step_count)
            parameter.data = parameter.data - self.lr * first_hat / (
                np.sqrt(second_hat) + self.eps
            )
