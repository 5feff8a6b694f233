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

Plans are memoised per :class:`~repro.cnf.formula.CNF` via
:meth:`~repro.cnf.formula.CNF.evaluation_plan` and invalidated whenever the
formula mutates (``add_clause`` or a ``num_variables`` change), mirroring the
engine's compile-once design; :func:`clear_plan_caches` (surfaced as
:func:`repro.clear_caches`) drops them explicitly.

The plan is the one CNF evaluator: every caller — the sampler's
validation, the baselines, the metrics — runs it.  The clause-loop original
it replaced is the test oracle ``tests/oracles/cnf.py``.  The kernel is
boolean; the sampler's ``float32`` learning arrays never reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

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

    Complements the automatic mutation-driven invalidation.  Exposed to users as
    :func:`repro.clear_caches`.
    """
    _PLAN_OWNERS.clear(lambda formula: formula.clear_evaluation_plan())


def compile_evaluation_plan(formula: "CNF") -> CNFEvalPlan:
    """Flatten ``formula`` into a :class:`CNFEvalPlan` (one pass over the clauses)."""
    _PLAN_COMPILES.inc()
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


def _concatenate(segments, dtype):
    if not segments:
        return np.asarray([], dtype=dtype)
    if len(segments) == 1:
        return np.asarray(segments[0], dtype=dtype)
    return np.concatenate(segments).astype(dtype, copy=False)


def extend_evaluation_plan(plan: CNFEvalPlan, formula: "CNF") -> CNFEvalPlan:
    """Patch a parent plan into the plan of an append-only extended formula.

    ``formula``'s first ``plan.num_clauses`` clauses must be exactly the
    clauses the parent plan was compiled from; only appended clauses (and a
    possibly larger variable count) may differ.  Because the width sort in
    :func:`compile_evaluation_plan` is stable and appended clauses carry the
    largest original indices, each appended clause lands at the *end* of its
    width bucket — so the parent's flat arrays can be spliced per bucket
    without recompiling the whole formula.  The result is equal, field for
    field, to ``compile_evaluation_plan(formula)`` (pinned by tests).
    """
    clauses = formula.clauses
    if len(clauses) < plan.num_clauses:
        raise ValueError(
            f"formula has {len(clauses)} clauses but the parent plan covers "
            f"{plan.num_clauses}; extend_evaluation_plan is append-only"
        )
    appended = clauses[plan.num_clauses :]
    num_empty = plan.num_empty + sum(1 for clause in appended if not len(clause))
    new_by_width: Dict[int, list] = {}
    for clause in appended:
        if len(clause):
            new_by_width.setdefault(len(clause), []).append(clause)

    old_spans = {width: (start, stop) for start, stop, width in plan.width_groups}
    boundaries = np.append(plan.reduce_offsets, plan.literal_columns.size)
    columns_segments = []
    negated_segments = []
    offsets_segments = []
    groups = []
    position = 0
    sorted_position = 0
    for width in sorted(set(old_spans) | set(new_by_width)):
        group_start = sorted_position
        if width in old_spans:
            start, stop = old_spans[width]
            literal_start, literal_stop = boundaries[start], boundaries[stop]
            columns_segments.append(plan.literal_columns[literal_start:literal_stop])
            negated_segments.append(plan.literal_negated[literal_start:literal_stop])
            offsets_segments.append(
                plan.reduce_offsets[start:stop] - literal_start + position
            )
            position += int(literal_stop - literal_start)
            sorted_position += stop - start
        for clause in new_by_width.get(width, ()):
            columns_segments.append(
                np.asarray([abs(literal) - 1 for literal in clause], dtype=np.intp)
            )
            negated_segments.append(
                np.asarray([literal < 0 for literal in clause], dtype=bool)
            )
            offsets_segments.append(np.asarray([position], dtype=np.intp))
            position += width
            sorted_position += 1
        groups.append((group_start, sorted_position, width))
    return CNFEvalPlan(
        num_variables=formula.num_variables,
        num_clauses=len(clauses),
        literal_columns=_concatenate(columns_segments, np.intp),
        literal_negated=_concatenate(negated_segments, bool),
        reduce_offsets=_concatenate(offsets_segments, np.intp),
        width_groups=tuple(groups),
        num_empty=num_empty,
    )
