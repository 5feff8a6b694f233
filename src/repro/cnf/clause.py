"""Clauses and literal helpers.

Literals follow the DIMACS convention: a positive integer ``v`` denotes the
variable ``v`` and ``-v`` denotes its negation.  Variable indices start at 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple


def literal_variable(literal: int) -> int:
    """Return the (positive) variable index of a literal."""
    if literal == 0:
        raise ValueError("0 is not a valid literal")
    return abs(literal)


def literal_is_positive(literal: int) -> bool:
    """Whether the literal is the positive phase of its variable."""
    if literal == 0:
        raise ValueError("0 is not a valid literal")
    return literal > 0


def negate_literal(literal: int) -> int:
    """Return the complementary literal."""
    if literal == 0:
        raise ValueError("0 is not a valid literal")
    return -literal


class Clause:
    """An immutable disjunction of literals.

    Duplicate literals are removed at construction; a clause containing both a
    literal and its negation is tautological and always satisfied.
    """

    __slots__ = ("_literals",)

    def __init__(self, literals: Iterable[int]) -> None:
        seen = []
        seen_set = set()
        for literal in literals:
            literal = int(literal)
            if literal == 0:
                raise ValueError("0 is not a valid literal (it terminates DIMACS lines)")
            if literal not in seen_set:
                seen_set.add(literal)
                seen.append(literal)
        object.__setattr__(self, "_literals", tuple(seen))

    def __setattr__(self, *args) -> None:
        raise AttributeError("Clause is immutable")

    @staticmethod
    def unchecked(literals: Tuple[int, ...]) -> "Clause":
        """A clause over ``literals`` as given, skipping the deduplication.

        For the views over a formula's CSR arrays, whose literals are
        already validated (nonzero, no repeat).
        """
        clause = object.__new__(Clause)
        object.__setattr__(clause, "_literals", literals)
        return clause

    @property
    def literals(self) -> Tuple[int, ...]:
        """The literals of the clause, in first-seen order."""
        return self._literals

    @property
    def variables(self) -> Tuple[int, ...]:
        """The distinct variable indices referenced by the clause."""
        return tuple(sorted({abs(lit) for lit in self._literals}))

    def __len__(self) -> int:
        return len(self._literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self._literals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return frozenset(self._literals) == frozenset(other._literals)

    def __hash__(self) -> int:
        return hash(frozenset(self._literals))

    def __repr__(self) -> str:
        body = " ".join(str(lit) for lit in self._literals)
        return f"Clause({body})"
