"""Loss construction for the multi-output regression formulation.

Eq. 8 of the paper: ``L = sum_{b,m} ||Y - T||^2`` where ``Y`` are the
probabilistic outputs of the constrained nets and ``T`` the target matrix
(the loss itself and its gradient are computed in :mod:`repro.engine.train`).
In this sampler every constrained output is an auxiliary constraint net that
must evaluate to 1, so ``T`` is the all-ones matrix; :func:`target_matrix`
also supports explicit 0/1 targets for users who constrain outputs to other
values (e.g. CRV scenarios pinning specific response bits).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


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
