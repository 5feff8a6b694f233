"""The CNF formula container used throughout the library.

A formula is one immutable value: CSR arrays ``literals`` (``int32``, every
clause's literals in order) and ``offsets`` (``int64``, clause ``i`` is
``literals[offsets[i]:offsets[i + 1]]``) plus ``num_variables``, all fixed
at construction.  The DIMACS reader and the store's formula entry build the
arrays directly through :meth:`CNF.from_csr`, the one validating
constructor; ``CNF(clauses)`` flattens a clause list and is checked the
same way, so every way of building the same clauses gives the same arrays.
A clause is a row of those arrays: :attr:`CNF.clauses` and iteration give
``int`` tuples (:func:`csr_rows`), built once, on first use, and two
formulas are equal exactly when their variable counts and arrays are, the
identity the content signature hashes (literal order within a clause is
significant).  The signature, the evaluation plan and the operation count
read the arrays.  The evaluation plan is compiled once per formula, and a
:class:`~repro.cnf.delta.ClauseDelta` edits the arrays into a new formula
(:meth:`CNF.with_delta`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cnf.kernel import CNFEvalPlan, compile_evaluation_plan, register_plan_owner

#: Largest variable index a formula holds: its literals are ``int32``.
MAX_VARIABLE = 2**31 - 1


def rows_csr(rows: Sequence[Sequence[int]], dtype) -> Tuple[np.ndarray, np.ndarray]:
    """``(int64 offsets, flat dtype values)`` of a sequence of rows."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(list(map(len, rows)), out=offsets[1:])
    return offsets, np.fromiter(chain.from_iterable(rows), dtype=dtype, count=int(offsets[-1]))


def csr_rows(values: np.ndarray, offsets: np.ndarray) -> List[Tuple[int, ...]]:
    """The rows of CSR arrays as int tuples, one ``tolist`` each.

    Row ``i`` is ``values[offsets[i]:offsets[i + 1]]``.
    """
    flat, bounds = values.tolist(), offsets.tolist()
    return [tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]


def two_input_operation_count(literals: np.ndarray, offsets: np.ndarray) -> int:
    """2-input gate equivalents to evaluate the conjunction of a CSR clause list.

    See :meth:`CNF.two_input_operation_count`; the incremental transform
    also counts a mutated clause list that is not a :class:`CNF`.
    """
    num_clauses = offsets.size - 1
    # sum(max(width - 1, 0)) over clauses is the literal count less the
    # number of non-empty clauses.
    ors = literals.size - int(np.count_nonzero(np.diff(offsets)))
    return ors + int(np.count_nonzero(literals < 0)) + max(num_clauses - 1, 0)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _drop_repeats(literals: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR without repeated literals in a clause (the first one stays)."""
    widths = np.diff(offsets)
    owners = np.repeat(np.arange(widths.size, dtype=np.int64), widths)
    # One int64 key per literal occurrence: its clause, then the literal.
    keys = (owners << 32) + (literals.astype(np.int64) + 2**31)
    # Stable, so the first occurrence of a repeated key sorts first.
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeat = ordered[1:] == ordered[:-1]
    if not repeat.any():
        return literals, offsets
    keep = np.ones(literals.size, dtype=np.bool_)
    keep[order[1:][repeat]] = False
    counts = np.bincount(owners[keep], minlength=widths.size)
    offsets = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return literals[keep], offsets


class CNF:
    """A conjunction of clauses over variables ``1..num_variables``.

    Immutable: the clauses and ``num_variables`` are fixed at construction,
    and an edit builds a new formula (:meth:`with_delta`); only ``comments``
    and ``name`` are free-form labels.  ``num_variables`` may exceed the
    largest referenced variable (DIMACS headers frequently over-declare),
    but never undercounts.
    """

    def __init__(
        self,
        clauses: Optional[Iterable[Sequence[int]]] = None,
        num_variables: int = 0,
        comments: Optional[List[str]] = None,
        name: str = "",
    ) -> None:
        """A formula over a clause list (int sequences), flattened to CSR
        arrays and checked as :meth:`from_csr` checks them."""
        rows = list(clauses or ())
        try:
            offsets, literals = rows_csr(rows, np.int64)
        except OverflowError:
            widest = max(abs(int(literal)) for row in rows for literal in row)
            raise ValueError(
                f"variable {widest} is beyond the largest, {MAX_VARIABLE}"
            ) from None
        self._init_csr(literals, offsets, num_variables, comments, name)

    @classmethod
    def from_csr(
        cls,
        literals: np.ndarray,
        offsets: np.ndarray,
        num_variables: int = 0,
        comments: Optional[List[str]] = None,
        name: str = "",
    ) -> "CNF":
        """A formula over CSR arrays: the one validating constructor.

        ``offsets`` must start at 0, never decrease and end at
        ``len(literals)``; every literal must be nonzero and at most
        :data:`MAX_VARIABLE` in magnitude, or this raises
        :class:`ValueError`.  A literal repeated within a clause is dropped
        (the first stays), and ``num_variables`` grows to the largest
        variable referenced.
        """
        formula = cls.__new__(cls)
        formula._init_csr(literals, offsets, num_variables, comments, name)
        return formula

    def _init_csr(self, literals, offsets, num_variables, comments, name) -> None:
        """Validate and adopt CSR arrays (see :meth:`from_csr`)."""
        literals = np.asarray(literals)
        offsets = np.asarray(offsets)
        if literals.ndim != 1 or offsets.ndim != 1 or not (
            np.issubdtype(literals.dtype, np.integer) and np.issubdtype(offsets.dtype, np.integer)
        ):
            raise ValueError("CSR literals and offsets must be 1-D integer arrays")
        if (
            not offsets.size
            or offsets[0] != 0
            or offsets[-1] != literals.size
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValueError("offsets are not clause bounds into the literals")
        widest = 0
        if literals.size:
            # Python ints: no cast or abs can wrap a value into range.
            widest = max(int(literals.max()), -int(literals.min()))
            if widest > MAX_VARIABLE:
                raise ValueError(f"variable {widest} is beyond the largest, {MAX_VARIABLE}")
            if np.count_nonzero(literals) != literals.size:
                raise ValueError("0 is not a valid literal (it terminates DIMACS lines)")
        literals, offsets = _drop_repeats(
            literals.astype(np.int32), offsets.astype(np.int64)
        )
        self._literals = _frozen(literals)
        self._offsets = _frozen(offsets)
        self._num_variables = max(int(num_variables), widest)
        self._plan: Optional[CNFEvalPlan] = None
        self.comments: List[str] = list(comments or [])
        self.name = name

    def with_delta(self, delta) -> "CNF":
        """A new formula: this one with a :class:`~repro.cnf.delta.ClauseDelta`
        applied to its arrays (retractions first, then ``add`` clauses, then
        ``assume`` units).  Its evaluation plan compiles on first use, like
        any formula's.

        An empty (or ``None``) delta returns ``self`` unchanged — same object,
        so the default :class:`~repro.core.task.SamplingTask` costs nothing
        and stays bitwise-identical.
        """
        if delta is None or delta.is_empty:
            return self
        literals, offsets, _ = delta.apply(self._literals, self._offsets)
        return CNF.from_csr(literals, offsets, self._num_variables, self.comments, self.name)

    # -- basic accessors -------------------------------------------------------------
    @cached_property
    def clauses(self) -> Tuple[Tuple[int, ...], ...]:
        """The clauses as ``int`` tuples, in order (read off the arrays on
        first use)."""
        return tuple(csr_rows(self._literals, self._offsets))

    @property
    def literals(self) -> np.ndarray:
        """Every clause's literals in order, one read-only ``int32`` array."""
        return self._literals

    @property
    def offsets(self) -> np.ndarray:
        """Row bounds into :attr:`literals`, read-only ``int64`` (``num_clauses + 1``)."""
        return self._offsets

    @property
    def num_variables(self) -> int:
        """Number of declared variables (at least the largest referenced index)."""
        return self._num_variables

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return self._offsets.size - 1

    def two_input_operation_count(self) -> int:
        """Number of 2-input gate equivalents to evaluate the CNF directly.

        Each clause of width ``w`` needs ``w - 1`` two-input ORs plus the
        inverters for negated literals; the conjunction of ``m`` clauses needs
        ``m - 1`` two-input ANDs.  This is the "operations in the CNF" numerator
        of the Fig. 4 (middle) ops-reduction metric.
        """
        return two_input_operation_count(self.literals, self.offsets)

    # -- evaluation --------------------------------------------------------------------
    def evaluation_plan(self) -> CNFEvalPlan:
        """The memoised compiled evaluation plan, compiled on first use."""
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
        return self.num_clauses

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNF):
            return NotImplemented
        return (
            self._num_variables == other._num_variables
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._literals, other._literals)
        )

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"CNF(vars={self._num_variables}, clauses={self.num_clauses}{label})"
