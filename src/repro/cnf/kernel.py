"""Compiled CNF evaluation kernel.

Batch CNF evaluation used to walk the clause list in Python
(:meth:`~repro.cnf.formula.CNF.evaluate_batch`'s clause-by-clause,
literal-by-literal loop).  This module compiles a formula once into a flat
*evaluation plan* — the CNF analogue of the engine's levelized programs
(:mod:`repro.engine.program`):

* ``literal_columns`` / ``literal_negated`` — every literal occurrence of
  every non-empty clause, flattened into one index array and one sign array,
  so a single fancy-index gather ``assignments.T[columns] ^ negated``
  produces all literal values of the whole formula at once;
* ``reduce_offsets`` — clause start boundaries into the flat arrays, in the
  spirit of ``np.logical_or.reduceat``.  ``reduceat`` itself pays per-segment
  overhead on thousands of tiny clauses, so the clauses are stored sorted by
  width and each ``width_groups`` bucket reduces as a fused
  ``(clauses, width, batch)`` slice-OR instead — same flat layout, no
  per-clause Python or per-segment ufunc cost.  The boolean reductions run
  over the transposed ``(variables, batch)`` matrix so every gathered row is
  contiguous — free when the caller's matrix is itself the transposed view
  of variable-major rows, as the sampler's is.

Empty clauses cannot ride the reduction (a zero-length segment is not an
identity reduction), so they are counted separately: one empty clause makes
every assignment unsatisfying.

The compile is array operations over the formula's CSR ``literals`` and
``offsets`` (a stable sort of the clause widths and one gather); the
clause loop it replaced is the test oracle
``tests/oracles/cnf.py::compile_evaluation_plan_reference``.

A formula is immutable, so its plan is compiled once, on first use, and
memoised on the :class:`~repro.cnf.formula.CNF` via
:meth:`~repro.cnf.formula.CNF.evaluation_plan`, mirroring the engine's
compile-once design; a formula edited by a clause delta is a new formula
with its own plan.  :func:`clear_plan_caches` (surfaced as
:func:`repro.clear_caches`) drops the memos explicitly.

The plan is the one CNF evaluator: every caller — the sampler's
validation, the baselines, the metrics — runs it.  The clause-loop original
it replaced is the test oracle ``tests/oracles/cnf.py``.  The kernel is
boolean; the sampler's ``float32`` learning arrays never reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.utils.weakcache import OwnerRegistry
from repro import obs

_PLAN_COMPILES = obs.counter(
    "repro_cnf_plan_compiles_total",
    "CNF evaluation plans flattened from clause lists.",
)
_CNF_EVALUATIONS = obs.counter(
    "repro_cnf_evaluations_total",
    "Batched CNF satisfaction evaluations by kernel flavour.",
    labels=("kind",),
)

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.cnf.formula
    from repro.cnf.formula import CNF


@dataclass(frozen=True)
class CNFEvalPlan:
    """A compiled, formula-specific batch-evaluation plan (immutable)."""

    #: Declared variable width the plan was compiled for.
    num_variables: int
    #: Total clause count, including empty clauses.
    num_clauses: int
    #: Flat assignment-column index of every literal, clauses sorted by width.
    literal_columns: np.ndarray
    #: Sign of each flat literal (``True`` for a negated literal).
    literal_negated: np.ndarray
    #: Start offset of each (width-sorted) non-empty clause in the flat arrays.
    reduce_offsets: np.ndarray
    #: ``(clause_start, clause_end, width)`` spans over the width-sorted
    #: clauses; each bucket reduces as one fused ``(clauses, width, batch)`` OR.
    width_groups: Tuple[Tuple[int, int, int], ...]
    #: Number of empty clauses (each one falsifies every assignment).
    num_empty: int

    @property
    def num_literals(self) -> int:
        """Total literal occurrences across the non-empty clauses."""
        return int(self.literal_columns.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident size of the plan's index arrays.

        Used by byte-bounded artifact caches (:mod:`repro.serve.cache`) to
        account for compiled state.
        """
        return int(
            self.literal_columns.nbytes
            + self.literal_negated.nbytes
            + self.reduce_offsets.nbytes
        )

    # -- fused evaluation -------------------------------------------------------------
    def _gather_literal_values(self, assignments: np.ndarray) -> np.ndarray:
        """``(literals, batch)`` literal values over the transposed matrix."""
        transposed = np.ascontiguousarray(assignments.T)
        values = transposed[self.literal_columns]
        values ^= self.literal_negated[:, None]
        return values

    def _group_blocks(self, values, batch: int):
        """Yield each width bucket as a ``(clauses, width, batch)`` view."""
        for clause_start, clause_end, width in self.width_groups:
            flat_start = int(self.reduce_offsets[clause_start])
            count = clause_end - clause_start
            block = values[flat_start : flat_start + count * width]
            yield clause_start, clause_end, block.reshape(count, width, batch)

    @staticmethod
    def _or_over_width(block):
        """OR a ``(clauses, width, batch)`` block down to ``(clauses, batch)``."""
        satisfied = block[:, 0]
        for column in range(1, block.shape[1]):
            satisfied = satisfied | block[:, column]
        return satisfied

    def evaluate(self, assignments: np.ndarray) -> np.ndarray:
        """Per-row satisfaction of the whole formula (boolean kernel)."""
        batch = assignments.shape[0]
        _CNF_EVALUATIONS.inc(1.0, "bool")
        if self.num_empty:
            return np.zeros(batch, dtype=np.bool_)
        if self.reduce_offsets.size == 0:
            return np.ones(batch, dtype=np.bool_)
        values = self._gather_literal_values(assignments)
        satisfied = np.ones(batch, dtype=np.bool_)
        for _, _, block in self._group_blocks(values, batch):
            satisfied &= np.all(self._or_over_width(block), axis=0)
        return satisfied



#: Formulas holding a memoised plan.
_PLAN_OWNERS = OwnerRegistry()


def register_plan_owner(formula: "CNF") -> None:
    """Track a formula that memoised an evaluation plan (for bulk clearing)."""
    _PLAN_OWNERS.register(formula)


def clear_plan_caches() -> None:
    """Drop every memoised CNF evaluation plan in the process.

    Exposed to users as :func:`repro.clear_caches`.
    """
    _PLAN_OWNERS.clear(lambda formula: formula.clear_evaluation_plan())


def compile_evaluation_plan(formula: "CNF") -> CNFEvalPlan:
    """Flatten ``formula`` into a :class:`CNFEvalPlan` (array operations
    over its CSR ``literals``/``offsets``, no per-clause Python)."""
    _PLAN_COMPILES.inc()
    literals, offsets = formula.literals, formula.offsets
    widths = np.diff(offsets)
    # Stable sort: clauses keep their insertion order within a width.
    order = np.argsort(widths, kind="stable")
    order = order[widths[order] > 0]
    sorted_widths = widths[order]
    reduce_offsets = np.zeros(order.size, dtype=np.intp)
    np.cumsum(sorted_widths[:-1], out=reduce_offsets[1:])
    # Flat position of every literal of the width-sorted clauses.
    gather = np.arange(int(sorted_widths.sum()), dtype=np.intp) + np.repeat(
        offsets[order] - reduce_offsets, sorted_widths
    )
    values = literals[gather]
    # Bucket edges: where the sorted width changes, plus both ends.
    edges = np.flatnonzero(np.diff(sorted_widths)) + 1
    edges = [0, *edges.tolist(), order.size] if order.size else []
    return CNFEvalPlan(
        num_variables=formula.num_variables,
        num_clauses=formula.num_clauses,
        literal_columns=np.abs(values).astype(np.intp) - 1,
        literal_negated=values < 0,
        reduce_offsets=reduce_offsets,
        width_groups=tuple(
            (start, stop, int(sorted_widths[start])) for start, stop in zip(edges, edges[1:])
        ),
        num_empty=int(widths.size - order.size),
    )
