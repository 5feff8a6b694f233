"""Reference oracle: a clause delta applied to a list of clause objects.

Before :meth:`ClauseDelta.apply <repro.cnf.delta.ClauseDelta.apply>` edited
a formula's CSR arrays, it walked a list of :class:`Clause` objects: each
retraction searched the remaining list for an equal clause (equal literal
set) and deleted it, then the ``add`` clauses and the ``assume`` units were
appended.  This is that method, verbatim; the array edit must give the
same clauses, change position and error.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cnf.clause import Clause


def apply_reference(delta, clauses: Sequence[Clause]) -> Tuple[List[Clause], int]:
    """Apply ``delta`` to a clause sequence.

    Returns ``(mutated clause list, change position)`` where the change
    position is the smallest index at which the mutated list can differ
    from the input (``len(clauses)`` for a pure append).  Raises
    :class:`ValueError` when a ``retract`` clause has no match.
    """
    mutated = list(clauses)
    change_position = len(mutated)
    for clause in delta.retract:
        try:
            index = mutated.index(clause)
        except ValueError:
            raise ValueError(
                f"cannot retract {clause!r}: no matching clause in the formula"
            ) from None
        del mutated[index]
        change_position = min(change_position, index)
    mutated.extend(delta.appended_clauses())
    return mutated, change_position
