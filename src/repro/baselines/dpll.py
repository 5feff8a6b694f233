"""A simple DPLL (Davis-Putnam-Logemann-Loveland) backtracking solver.

Mostly used as a test oracle (exhaustive enumeration of all models for small
formulas) and as the seed-solution provider for the QuickSampler-style
baseline.  The CDCL solver in :mod:`repro.baselines.cdcl` is the one used for
large instances.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cnf.formula import CNF
from repro.utils.rng import RandomState, new_rng


class DPLLSolver:
    """Recursive DPLL with unit propagation and pure-literal elimination."""

    def __init__(self, formula: CNF, seed: Optional[int] = None) -> None:
        self.formula = formula
        self.num_variables = formula.num_variables
        self._rng: RandomState = new_rng(seed)
        self._clauses: List[Tuple[int, ...]] = list(formula.clauses)

    # -- public API ---------------------------------------------------------------------
    def solve(self, randomize: bool = False) -> Optional[np.ndarray]:
        """Return one satisfying assignment as a boolean vector, or ``None`` if UNSAT."""
        assignment = self._search(dict(), self._clauses, randomize)
        if assignment is None:
            return None
        return self._complete(assignment, randomize)

    def enumerate_models(self, limit: Optional[int] = None) -> Iterator[np.ndarray]:
        """Yield every model (full assignments) of the formula, up to ``limit``.

        Free variables (those not occurring in any clause, or left unassigned
        by the search) are expanded into both values, so the enumeration is
        over complete assignments — matching how unique solutions are counted
        throughout the library.
        """
        count = 0
        for partial in self._enumerate(dict(), self._clauses):
            for full in self._expand_free(partial):
                yield full
                count += 1
                if limit is not None and count >= limit:
                    return

    def count_models(self, limit: Optional[int] = None) -> int:
        """Count models (up to ``limit``)."""
        total = 0
        for _ in self.enumerate_models(limit=limit):
            total += 1
        return total

    # -- search internals -----------------------------------------------------------------
    def _search(
        self,
        assignment: Dict[int, bool],
        clauses: List[Tuple[int, ...]],
        randomize: bool,
    ) -> Optional[Dict[int, bool]]:
        simplified = self._simplify(assignment, clauses)
        if simplified is None:
            return None
        assignment, clauses = simplified
        if not clauses:
            return assignment
        variable = self._choose_variable(clauses, randomize)
        order = [True, False]
        if randomize and self._rng.random() < 0.5:
            order.reverse()
        for value in order:
            extended = dict(assignment)
            extended[variable] = value
            result = self._search(extended, clauses, randomize)
            if result is not None:
                return result
        return None

    def _enumerate(
        self, assignment: Dict[int, bool], clauses: List[Tuple[int, ...]]
    ) -> Iterator[Dict[int, bool]]:
        simplified = self._simplify(assignment, clauses)
        if simplified is None:
            return
        assignment, clauses = simplified
        if not clauses:
            yield assignment
            return
        variable = self._choose_variable(clauses, randomize=False)
        for value in (False, True):
            extended = dict(assignment)
            extended[variable] = value
            yield from self._enumerate(extended, clauses)

    def _simplify(
        self, assignment: Dict[int, bool], clauses: List[Tuple[int, ...]]
    ) -> Optional[Tuple[Dict[int, bool], List[Tuple[int, ...]]]]:
        assignment = dict(assignment)
        current = clauses
        while True:
            reduced: List[Tuple[int, ...]] = []
            unit: Optional[int] = None
            for clause in current:
                satisfied = False
                remaining: List[int] = []
                for literal in clause:
                    variable = abs(literal)
                    if variable in assignment:
                        if assignment[variable] == (literal > 0):
                            satisfied = True
                            break
                    else:
                        remaining.append(literal)
                if satisfied:
                    continue
                if not remaining:
                    return None
                if len(remaining) == 1 and unit is None:
                    unit = remaining[0]
                reduced.append(tuple(remaining))
            if unit is None:
                return assignment, reduced
            assignment[abs(unit)] = unit > 0
            current = reduced

    def _choose_variable(self, clauses: List[Tuple[int, ...]], randomize: bool) -> int:
        if randomize:
            clause = clauses[int(self._rng.integers(len(clauses)))]
            return abs(clause[int(self._rng.integers(len(clause)))])
        # Pick the variable occurring most often (a simple MOMS-like heuristic).
        counts: Dict[int, int] = {}
        for clause in clauses:
            for literal in clause:
                counts[abs(literal)] = counts.get(abs(literal), 0) + 1
        return max(counts, key=counts.get)

    # -- helpers -------------------------------------------------------------------------------
    def _complete(self, assignment: Dict[int, bool], randomize: bool) -> np.ndarray:
        values = np.zeros(self.num_variables, dtype=bool)
        for variable in range(1, self.num_variables + 1):
            if variable in assignment:
                values[variable - 1] = assignment[variable]
            elif randomize:
                values[variable - 1] = bool(self._rng.random() < 0.5)
        return values

    def _expand_free(self, assignment: Dict[int, bool]) -> Iterator[np.ndarray]:
        free = [
            variable
            for variable in range(1, self.num_variables + 1)
            if variable not in assignment
        ]
        base = np.zeros(self.num_variables, dtype=bool)
        for variable, value in assignment.items():
            base[variable - 1] = value
        if not free:
            yield base
            return
        for mask in range(2 ** len(free)):
            vector = base.copy()
            for position, variable in enumerate(free):
                vector[variable - 1] = bool((mask >> position) & 1)
            yield vector
