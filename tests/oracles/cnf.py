"""Reference oracles: the clause-by-clause CNF evaluation loops.

Before the compiled evaluation plan (:mod:`repro.cnf.kernel`),
``CNF.evaluate_batch`` walked the clause list in Python, one literal column
at a time.  This is that loop, verbatim; the compiled plan must match it bit
for bit on every batch.

It takes a ``(batch, num_variables)`` boolean matrix whose column ``j``
holds variable ``j + 1``, exactly like the library method.

:func:`compile_evaluation_plan_reference` is the plan compiler's original
clause loop, verbatim; the array compiler over the formula's CSR must give
an equal plan, field for field.

:func:`evaluate_reference` and :func:`clause_evaluate_reference` are the
formula's and the clause's one-assignment evaluators over a
``{variable: bool}`` dictionary, verbatim, which the batch evaluation must
agree with row by row.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cnf.kernel import CNFEvalPlan


def clause_evaluate_reference(clause, assignment: Dict[int, bool]) -> bool:
    """Evaluate ``clause`` under a complete assignment ``{variable: bool}``."""
    for literal in clause:
        value = assignment[abs(literal)]
        if value == (literal > 0):
            return True
    return False


def evaluate_reference(formula, assignment: Dict[int, bool]) -> bool:
    """Evaluate ``formula`` under a complete assignment ``{variable: bool}``."""
    return all(clause_evaluate_reference(clause, assignment) for clause in formula.clauses)


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


def compile_evaluation_plan_reference(formula: "CNF") -> CNFEvalPlan:
    """Flatten ``formula`` into a :class:`CNFEvalPlan` (one pass over the clauses)."""
    clauses = formula.clauses
    # Stable sort: clauses keep their insertion order within a width.
    nonempty = sorted((clause for clause in clauses if len(clause)), key=len)
    num_empty = len(clauses) - len(nonempty)
    columns = []
    negated = []
    offsets = []
    groups = []
    position = 0
    for sorted_position, clause in enumerate(nonempty):
        width = len(clause)
        if groups and groups[-1][2] == width:
            groups[-1][1] = sorted_position + 1
        else:
            groups.append([sorted_position, sorted_position + 1, width])
        offsets.append(position)
        for literal in clause:
            columns.append(abs(literal) - 1)
            negated.append(literal < 0)
            position += 1
    return CNFEvalPlan(
        num_variables=formula.num_variables,
        num_clauses=formula.num_clauses,
        literal_columns=np.asarray(columns, dtype=np.intp),
        literal_negated=np.asarray(negated, dtype=bool),
        reduce_offsets=np.asarray(offsets, dtype=np.intp),
        width_groups=tuple((start, stop, width) for start, stop, width in groups),
        num_empty=num_empty,
    )
