"""Deltas: declarative add / retract / assume edits of a CNF's clauses.

Incremental SAT workflows (and the serving tier's ``incremental`` job type)
describe a formula as *another formula plus a small edit* instead of a whole
new clause list.  :class:`ClauseDelta` is that edit, pinned down precisely so
every consumer — :meth:`CNF.with_delta <repro.cnf.formula.CNF.with_delta>`,
:func:`repro.core.transform.retransform`, the task signature — agrees on the
resulting clause sequence:

1. every ``retract`` clause removes the *first* clause with the same literal
   set (a retraction ignores literal order);
2. the ``add`` clauses are appended, in order;
3. each ``assume`` literal is appended as a unit clause, in order.

:meth:`ClauseDelta.apply` makes that edit on a formula's CSR arrays and
returns new ones: :meth:`CNF.with_delta <repro.cnf.formula.CNF.with_delta>`
builds a new formula from them (whose evaluation plan compiles on first
use, like any formula's), and ``retransform`` edits the arrays its parent
transform consumed.

A clause is an ``int`` tuple, as a formula's rows are: ``0`` is refused and
a repeated literal is dropped (the first stays).  Two deltas are equal
exactly when their :meth:`~ClauseDelta.canonical` forms are, so literal
order within a clause is significant there, as it is in the formula
signature.

Assumptions are just sugar for unit-clause adds — the form incremental SAT
interfaces (IPASIR's ``assume``) use to pin variables for one solve; retract
the unit to release the assumption.  Deltas are immutable and hashable, so
they can ride inside frozen task specs and coalescing keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cnf.formula import MAX_VARIABLE, rows_csr


def _clause(literals: Iterable[int]) -> Tuple[int, ...]:
    """A clause as an ``int`` tuple: no ``0``, repeats dropped (first stays)."""
    clause = tuple(dict.fromkeys(map(int, literals)))
    if 0 in clause:
        raise ValueError("0 is not a valid literal (it terminates DIMACS lines)")
    return clause


def _clauses(clauses: Iterable[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(_clause, clauses))


def _positions_with_literal_set(
    literals: np.ndarray, offsets: np.ndarray, widths: np.ndarray, key: Tuple[int, ...]
) -> List[int]:
    """Positions, in order, of the clauses whose literal set is the sorted
    ``key`` (clauses without repeated literals: equal sets, equal widths)."""
    candidates = np.flatnonzero(widths == len(key))
    if key:
        rows = literals[offsets[candidates, None] + np.arange(len(key))]
        rows.sort(axis=1)
        candidates = candidates[(rows == np.asarray(key)).all(axis=1)]
    return candidates.tolist()


@dataclass(frozen=True)
class ClauseDelta:
    """An immutable edit of a clause list (see the module docstring for order)."""

    #: Clauses appended to the formula.
    add: Tuple[Tuple[int, ...], ...] = ()
    #: Clauses removed from the formula (first literal-set match each).
    retract: Tuple[Tuple[int, ...], ...] = ()
    #: Literals pinned true for this task; each becomes an appended unit clause.
    assume: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add", _clauses(self.add))
        object.__setattr__(self, "retract", _clauses(self.retract))
        assume = tuple(int(literal) for literal in self.assume)
        if any(literal == 0 for literal in assume):
            raise ValueError("0 is not a valid assumption literal")
        object.__setattr__(self, "assume", assume)

    @property
    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not (self.add or self.retract or self.assume)

    def appended_clauses(self) -> Tuple[Tuple[int, ...], ...]:
        """The clauses this delta appends: ``add`` then the ``assume`` units."""
        return self.add + tuple((literal,) for literal in self.assume)

    def apply(
        self, literals: np.ndarray, offsets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Apply the delta to a clause sequence held as CSR arrays.

        ``literals``/``offsets`` are a formula's arrays (no literal repeated
        within a clause, as :meth:`CNF.from_csr
        <repro.cnf.formula.CNF.from_csr>` guarantees).  Returns ``(literals,
        offsets, change position)``: new read-only ``int32``/``int64``
        arrays of the edited sequence, and the smallest clause index at
        which it can differ from the input (the input's clause count for a
        pure append).  Raises :class:`ValueError` when a ``retract`` clause
        has no match, or an appended literal is beyond
        :data:`~repro.cnf.formula.MAX_VARIABLE`.
        """
        widths = np.diff(offsets)
        # Literal set -> positions of the clauses with that set, in order; a
        # clause matches one set only, so each retraction of a set takes the
        # next of its positions.
        matches: Dict[Tuple[int, ...], List[int]] = {}
        removed: List[int] = []
        for clause in self.retract:
            key = tuple(sorted(clause))
            if key not in matches:
                matches[key] = _positions_with_literal_set(literals, offsets, widths, key)
            if not matches[key]:
                raise ValueError(
                    f"cannot retract {list(clause)}: no matching clause in the formula"
                )
            removed.append(matches[key].pop(0))
        appended = self.appended_clauses()
        widest = max(map(abs, chain.from_iterable(appended)), default=0)
        if widest > MAX_VARIABLE:
            raise ValueError(f"variable {widest} is beyond the largest, {MAX_VARIABLE}")
        appended_offsets, appended_literals = rows_csr(appended, np.int32)
        keep = np.ones(widths.size, dtype=np.bool_)
        keep[removed] = False
        edited_literals = np.concatenate([literals[np.repeat(keep, widths)], appended_literals])
        edited_widths = np.concatenate([widths[keep], np.diff(appended_offsets)])
        edited_offsets = np.zeros(edited_widths.size + 1, dtype=np.int64)
        np.cumsum(edited_widths, out=edited_offsets[1:])
        for array in (edited_literals, edited_offsets):
            array.flags.writeable = False
        return edited_literals, edited_offsets, min(removed, default=int(keep.size))

    def canonical(self) -> Tuple:
        """Hashable canonical form used by signatures and coalescing keys.

        Literal order inside ``add``/``retract`` clauses is preserved (clause
        order matters to Algorithm 1, and the literal sequence is part of the
        formula signature's identity too).
        """
        return (self.add, self.retract, self.assume)

    def to_dict(self) -> dict:
        """JSON/pickle-safe form (inverse of :meth:`from_dict`)."""
        return {
            "add": [list(clause) for clause in self.add],
            "retract": [list(clause) for clause in self.retract],
            "assume": list(self.assume),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClauseDelta":
        """Rebuild a delta from :meth:`to_dict` output (or manifest fields)."""
        unknown = set(data) - {"add", "retract", "assume"}
        if unknown:
            raise ValueError(f"unknown delta fields {sorted(unknown)}")
        return cls(
            add=data.get("add", ()),
            retract=data.get("retract", ()),
            assume=data.get("assume", ()),
        )

    def __bool__(self) -> bool:
        return not self.is_empty
