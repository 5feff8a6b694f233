"""Reference oracle: the clause-by-clause CNF evaluation loops.

Before the compiled evaluation plan (:mod:`repro.cnf.kernel`),
``CNF.evaluate_batch`` walked the clause list in Python, one literal column
at a time.  This is that loop, verbatim; the compiled plan must match it bit
for bit on every batch.

It takes a ``(batch, num_variables)`` boolean matrix whose column ``j``
holds variable ``j + 1``, exactly like the library method.
"""

from __future__ import annotations

import numpy as np


def evaluate_batch_reference(formula, assignments: np.ndarray) -> np.ndarray:
    """Per-row satisfaction of ``formula`` by the clause loop."""
    satisfied = np.ones(assignments.shape[0], dtype=bool)
    for clause in formula.clauses:
        clause_value = np.zeros(assignments.shape[0], dtype=bool)
        for literal in clause:
            column = assignments[:, abs(literal) - 1]
            clause_value |= column if literal > 0 else ~column
        satisfied &= clause_value
        if not satisfied.any():
            break
    return satisfied

