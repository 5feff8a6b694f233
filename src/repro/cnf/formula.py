"""The CNF formula container used throughout the library."""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cnf.clause import Clause
from repro.cnf.kernel import (
    CNFEvalPlan,
    compile_evaluation_plan,
    extend_evaluation_plan,
    register_plan_owner,
)


def two_input_operation_count(clauses: Sequence[Clause]) -> int:
    """2-input gate equivalents to evaluate the conjunction of ``clauses``.

    See :meth:`CNF.two_input_operation_count`; this is its one vectorised
    pass over the flat literals, shared with the incremental transform
    (which counts a mutated clause list that is not a :class:`CNF`).
    """
    literals = [clause.literals for clause in clauses]
    total = sum(map(len, literals))
    flat = np.fromiter(chain.from_iterable(literals), dtype=np.int64, count=total)
    # sum(max(width - 1, 0)) over clauses is the literal count less the
    # number of non-empty clauses.
    ors = total - (len(literals) - literals.count(()))
    return ors + int(np.count_nonzero(flat < 0)) + max(len(literals) - 1, 0)


class CNF:
    """A conjunction of clauses over variables ``1..num_variables``.

    The container is mutable only through :meth:`add_clause` /
    :meth:`retract_clause` (both of which invalidate the memoised evaluation
    plan); everything else returns new objects.  ``num_variables`` may exceed
    the largest referenced variable (DIMACS headers frequently over-declare),
    but never undercounts.
    """

    def __init__(
        self,
        clauses: Optional[Iterable[Sequence[int]]] = None,
        num_variables: int = 0,
        comments: Optional[List[str]] = None,
        name: str = "",
    ) -> None:
        self._clauses: List[Clause] = []
        self._num_variables = int(num_variables)
        self._plan: Optional[CNFEvalPlan] = None
        self.comments: List[str] = list(comments or [])
        self.name = name
        for clause in clauses or []:
            self.add_clause(clause)

    # -- construction --------------------------------------------------------------
    def add_clause(self, clause: Sequence[int]) -> Clause:
        """Append a clause (sequence of literals or :class:`Clause`) and return it."""
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        self._clauses.append(clause)
        self._plan = None
        for literal in clause:
            self._num_variables = max(self._num_variables, abs(literal))
        return clause

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Append several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def retract_clause(self, clause: Sequence[int]) -> Clause:
        """Remove (and return) the first clause equal to ``clause``.

        Clause equality ignores literal order, so ``[2, -1]`` retracts a
        clause added as ``[-1, 2]``.  ``num_variables`` never shrinks (it is a
        declaration, not a census — consistent with DIMACS over-declaration).
        Raises :class:`ValueError` when no clause matches.
        """
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        try:
            index = self._clauses.index(clause)
        except ValueError:
            raise ValueError(
                f"cannot retract {clause!r}: no matching clause in the formula"
            ) from None
        removed = self._clauses.pop(index)
        self._plan = None
        return removed

    def with_delta(self, delta) -> "CNF":
        """A copy of this formula with a :class:`~repro.cnf.delta.ClauseDelta`
        applied (retractions first, then ``add`` clauses, then ``assume``
        units).

        An empty (or ``None``) delta returns ``self`` unchanged — same object,
        so the default :class:`~repro.core.task.SamplingTask` costs nothing
        and stays bitwise-identical.  When this formula has a memoised
        evaluation plan and the delta is append-only, the copy's plan is
        *patched* from the parent plan (:func:`extend_evaluation_plan`)
        instead of scheduling a recompile.
        """
        if delta is None or delta.is_empty:
            return self
        mutated_clauses, _ = delta.apply(self._clauses)
        mutated = CNF(
            num_variables=self._num_variables,
            comments=list(self.comments),
            name=self.name,
        )
        for clause in mutated_clauses:
            mutated.add_clause(clause)
        if self._plan is not None and delta.is_append_only:
            mutated._plan = extend_evaluation_plan(self._plan, mutated)
            register_plan_owner(mutated)
        return mutated

    def copy(self) -> "CNF":
        """Return a deep copy."""
        duplicate = CNF(num_variables=self._num_variables, comments=list(self.comments), name=self.name)
        duplicate._clauses = list(self._clauses)
        duplicate._plan = self._plan  # immutable plan, same clauses: safe to share
        if duplicate._plan is not None:
            register_plan_owner(duplicate)
        return duplicate

    # -- basic accessors -------------------------------------------------------------
    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clauses, in insertion order."""
        return tuple(self._clauses)

    @property
    def num_variables(self) -> int:
        """Number of declared variables (at least the largest referenced index)."""
        return self._num_variables

    @num_variables.setter
    def num_variables(self, value: int) -> None:
        largest = max((max(abs(l) for l in c) for c in self._clauses if len(c)), default=0)
        if value < largest:
            raise ValueError(
                f"num_variables={value} is smaller than the largest referenced variable {largest}"
            )
        self._num_variables = int(value)
        self._plan = None

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self._clauses)

    def variables(self) -> List[int]:
        """Sorted list of variables actually referenced by some clause."""
        seen = set()
        for clause in self._clauses:
            seen.update(abs(lit) for lit in clause)
        return sorted(seen)

    def literal_count(self) -> int:
        """Total number of literal occurrences (the CNF 'size')."""
        return sum(len(clause) for clause in self._clauses)

    def two_input_operation_count(self) -> int:
        """Number of 2-input gate equivalents to evaluate the CNF directly.

        Each clause of width ``w`` needs ``w - 1`` two-input ORs plus the
        inverters for negated literals; the conjunction of ``m`` clauses needs
        ``m - 1`` two-input ANDs.  This is the "operations in the CNF" numerator
        of the Fig. 4 (middle) ops-reduction metric.
        """
        return two_input_operation_count(self._clauses)

    # -- evaluation --------------------------------------------------------------------
    def evaluation_plan(self) -> CNFEvalPlan:
        """The memoised compiled evaluation plan (rebuilt after any mutation)."""
        if self._plan is None:
            self._plan = compile_evaluation_plan(self)
            register_plan_owner(self)
        return self._plan

    def clear_evaluation_plan(self) -> None:
        """Drop the memoised plan."""
        self._plan = None

    def install_evaluation_plan(self, plan: CNFEvalPlan) -> None:
        """Adopt a pre-compiled plan as this formula's memo.

        Used when a store-loaded artifact decodes its formula: the plan
        decoded with the artifact's round becomes the formula's memo.  It
        must match this formula's declared shape (plans are
        content-addressed, so a shape mismatch means the caller mixed
        signatures).
        """
        if (
            plan.num_variables != self._num_variables
            or plan.num_clauses != self.num_clauses
        ):
            raise ValueError(
                f"plan shape ({plan.num_variables} vars, {plan.num_clauses} clauses) "
                f"does not match formula ({self._num_variables} vars, "
                f"{self.num_clauses} clauses)"
            )
        self._plan = plan
        register_plan_owner(self)

    def _check_assignment_matrix(self, assignments) -> np.ndarray:
        """Validate and coerce a ``(batch, num_variables)`` boolean matrix.

        The matrix :meth:`evaluate_batch` accepts must be 2-D and exactly
        ``num_variables`` wide — a wider matrix almost always
        means the caller's column convention is off by one, so it is rejected
        rather than silently truncated.
        """
        matrix = np.asarray(assignments, dtype=np.bool_)
        if matrix.ndim != 2:
            raise ValueError(
                f"expected a 2-D assignment matrix, got shape {tuple(matrix.shape)}"
            )
        if matrix.shape[1] != self._num_variables:
            raise ValueError(
                f"assignment matrix has {matrix.shape[1]} columns, "
                f"but the formula has {self._num_variables} variables"
            )
        return matrix

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the formula under a complete assignment ``{variable: bool}``."""
        return all(clause.evaluate(assignment) for clause in self._clauses)

    def evaluate_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of a ``(batch, num_variables)`` boolean matrix.

        Column ``j`` of ``assignments`` holds the value of variable ``j + 1``.
        Returns a boolean vector of length ``batch`` that is ``True`` where all
        clauses are satisfied, computed by the memoised compiled plan
        (:mod:`repro.cnf.kernel`).
        """
        matrix = self._check_assignment_matrix(assignments)
        return self.evaluation_plan().evaluate(matrix)

    # -- protocol -----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNF):
            return NotImplemented
        return (
            self._num_variables == other._num_variables
            and list(self._clauses) == list(other._clauses)
        )

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"CNF(vars={self._num_variables}, clauses={self.num_clauses}{label})"
