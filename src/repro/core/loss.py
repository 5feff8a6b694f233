"""Loss construction for the multi-output regression formulation.

Eq. 8 of the paper: ``L = sum_{b,m} ||Y - T||^2`` where ``Y`` are the
probabilistic outputs of the constrained nets and ``T`` the target matrix.
In this sampler every constrained output is an auxiliary constraint net that
must evaluate to 1, so ``T`` is the all-ones matrix; the helpers below also
support explicit 0/1 targets for users who constrain outputs to other values
(e.g. CRV scenarios pinning specific response bits).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.functional import l2_loss


def target_matrix(
    batch_size: int,
    output_names: Sequence[str],
    targets: Optional[Dict[str, bool]] = None,
) -> np.ndarray:
    """Build the ``(batch, num_outputs)`` target matrix ``T``.

    ``targets`` maps output names to required values; outputs not mentioned
    default to 1 (the "constraint must hold" convention).
    """
    values = np.ones((batch_size, len(output_names)), dtype=np.float64)
    if targets:
        for column, name in enumerate(output_names):
            if name in targets and not targets[name]:
                values[:, column] = 0.0
    return values


def regression_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    """The Eq. 8 loss between probabilistic outputs and 0/1 targets.

    The targets are cast to the outputs' float dtype.
    """
    if outputs.shape != targets.shape:
        raise ValueError(
            f"output shape {outputs.shape} does not match target shape {targets.shape}"
        )
    return l2_loss(outputs, as_tensor(targets, outputs))


def per_sample_residual(outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample squared residual, used for monitoring convergence curves."""
    difference = np.asarray(outputs, dtype=np.float64) - np.asarray(targets, dtype=np.float64)
    if difference.ndim == 1:
        return difference**2
    return (difference**2).sum(axis=1)
