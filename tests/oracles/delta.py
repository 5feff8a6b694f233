"""Reference oracle: a clause delta applied to a list of clause rows.

Before :meth:`ClauseDelta.apply <repro.cnf.delta.ClauseDelta.apply>` edited
a formula's CSR arrays, it walked a list of clauses: each retraction
searched the remaining list for the first clause with the same literal set
and deleted it, then the ``add`` clauses and the ``assume`` units were
appended.  This is that walk over ``int`` tuples (clauses have no repeated
literal, so equal sets are equal sorted tuples); the array edit must give
the same clauses, change position and error.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Row = Tuple[int, ...]


def apply_reference(delta, clauses: Sequence[Row]) -> Tuple[List[Row], int]:
    """Apply ``delta`` to a clause sequence.

    Returns ``(mutated clause list, change position)`` where the change
    position is the smallest index at which the mutated list can differ
    from the input (``len(clauses)`` for a pure append).  Raises
    :class:`ValueError` when a ``retract`` clause has no match.
    """
    mutated = list(clauses)
    change_position = len(mutated)
    for clause in delta.retract:
        key = sorted(clause)
        index = next((i for i, row in enumerate(mutated) if sorted(row) == key), None)
        if index is None:
            raise ValueError(
                f"cannot retract {list(clause)}: no matching clause in the formula"
            )
        del mutated[index]
        change_position = min(change_position, index)
    mutated.extend(delta.appended_clauses())
    return mutated, change_position
