"""Loss construction for the multi-output regression formulation.

Eq. 8 of the paper: ``L = sum_{b,m} ||Y - T||^2`` where ``Y`` are the
probabilistic outputs of the constrained nets and ``T`` the target matrix
(the loss itself and its gradient are computed in :mod:`repro.engine.train`).
Every constrained output is an auxiliary constraint net that must evaluate
to 1, so ``T`` is the all-ones matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def target_matrix(batch_size: int, output_names: Sequence[str]) -> np.ndarray:
    """The all-ones ``(batch, num_outputs)`` target matrix ``T``."""
    return np.ones((batch_size, len(output_names)), dtype=np.float64)
