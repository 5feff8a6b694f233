"""Reference oracle: the clause-by-clause CNF evaluation loops.

Before the compiled evaluation plan (:mod:`repro.cnf.kernel`),
``CNF.evaluate_batch`` and ``CNF.unsatisfied_clause_counts`` walked the
clause list in Python, one literal column at a time.  These are those loops,
verbatim; the compiled plan must match them bit for bit on every batch.

Both take a ``(batch, num_variables)`` boolean matrix whose column ``j``
holds variable ``j + 1``, exactly like the library methods.
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


def unsatisfied_clause_counts_reference(formula, assignments: np.ndarray) -> np.ndarray:
    """Per-row count of falsified clauses by the clause loop."""
    counts = np.zeros(assignments.shape[0], dtype=np.int64)
    for clause in formula.clauses:
        clause_value = np.zeros(assignments.shape[0], dtype=bool)
        for literal in clause:
            column = assignments[:, abs(literal) - 1]
            clause_value |= column if literal > 0 else ~column
        counts += ~clause_value
    return counts
