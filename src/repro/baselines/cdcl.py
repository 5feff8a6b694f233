"""A conflict-driven clause-learning (CDCL) SAT solver.

This is the solver substrate underneath the UniGen-style and CMSGen-style
samplers.  It implements the standard modern architecture the paper describes
in Section I (and attributes to GRASP/Chaff/MiniSat):

* two-watched-literal clause propagation,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style activity-based decision heuristics with decay,
* Luby-sequence restarts, and
* optional randomised polarity / decision-order, which is what the
  CMSGen-style sampler perturbs to obtain diverse solutions.

The implementation favours clarity over raw speed — it comfortably handles the
synthetic benchmark instances of this reproduction (thousands of variables)
but is not meant to compete with C++ solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cnf.formula import CNF
from repro.utils.rng import RandomState, new_rng

#: Sentinel decision level for unassigned variables.
_UNASSIGNED = -1


@dataclass
class SolverResult:
    """Outcome of one solver call."""

    satisfiable: Optional[bool]
    assignment: Optional[np.ndarray] = None  # boolean vector, variable 1 first
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0

    @property
    def status(self) -> str:
        """``"sat"``, ``"unsat"`` or ``"unknown"`` (budget exhausted)."""
        if self.satisfiable is None:
            return "unknown"
        return "sat" if self.satisfiable else "unsat"


@dataclass
class _ClauseRef:
    """Internal clause storage with its two watched literal positions."""

    literals: List[int]
    learned: bool = False


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (``index`` is 0-based)."""
    position = index + 1
    while True:
        length = position.bit_length()
        if position == (1 << length) - 1:
            return 1 << (length - 1)
        position = position - (1 << (length - 1)) + 1


class CDCLSolver:
    """CDCL solver over a :class:`~repro.cnf.formula.CNF`."""

    def __init__(
        self,
        formula: CNF,
        seed: Optional[int] = None,
        random_polarity: bool = False,
        random_decision_rate: float = 0.02,
        restart_interval: int = 64,
        max_conflicts: Optional[int] = None,
        decay: float = 0.95,
    ) -> None:
        self.formula = formula
        self.num_variables = formula.num_variables
        self._rng: RandomState = new_rng(seed)
        self.random_polarity = random_polarity
        self.random_decision_rate = random_decision_rate
        self.restart_interval = restart_interval
        self.max_conflicts = max_conflicts
        self.decay = decay

        self._clauses: List[_ClauseRef] = []
        self._watches: Dict[int, List[int]] = {}
        self._assignment: List[Optional[bool]] = [None] * (self.num_variables + 1)
        self._level: List[int] = [_UNASSIGNED] * (self.num_variables + 1)
        self._reason: List[Optional[int]] = [None] * (self.num_variables + 1)
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._activity: np.ndarray = np.zeros(self.num_variables + 1)
        self._activity_increment = 1.0
        self._saved_phase: List[bool] = [False] * (self.num_variables + 1)
        self._empty_clause = False
        self._units: List[int] = []

        for clause in formula.clauses:
            self._add_clause(list(clause), learned=False)

    # -- clause management ------------------------------------------------------------
    def _add_clause(self, literals: List[int], learned: bool) -> Optional[int]:
        unique = list(dict.fromkeys(literals))
        if any(-lit in unique for lit in unique):
            return None  # tautology
        if not unique:
            self._empty_clause = True
            return None
        if len(unique) == 1:
            # Unit clauses are handled as level-0 facts rather than watched
            # clauses (two-watched-literal propagation needs two positions).
            self._units.append(unique[0])
            return None
        index = len(self._clauses)
        self._clauses.append(_ClauseRef(unique, learned))
        for watch_literal in unique[:2]:
            self._watches.setdefault(watch_literal, []).append(index)
        return index

    # -- assignment helpers -------------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        value = self._assignment[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def _current_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        value = self._value(literal)
        if value is not None:
            return value
        variable = abs(literal)
        self._assignment[variable] = literal > 0
        self._level[variable] = self._current_level()
        self._reason[variable] = reason
        self._trail.append(literal)
        return True

    # -- propagation -----------------------------------------------------------------------
    def _propagate(self, result: SolverResult) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or ``None``."""
        queue_position = len(self._trail) - 1 if self._trail else 0
        # Propagate everything on the trail that has not been processed yet.
        pointer = getattr(self, "_propagated", 0)
        while pointer < len(self._trail):
            literal = self._trail[pointer]
            pointer += 1
            result.propagations += 1
            falsified = -literal
            watch_list = self._watches.get(falsified, [])
            new_watch_list: List[int] = []
            conflict: Optional[int] = None
            index_position = 0
            while index_position < len(watch_list):
                clause_index = watch_list[index_position]
                index_position += 1
                clause = self._clauses[clause_index]
                literals = clause.literals
                # Ensure the falsified literal is in position 1.
                if literals[0] == falsified:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                if self._value(first) is True:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch.
                replaced = False
                for position in range(2, len(literals)):
                    candidate = literals[position]
                    if self._value(candidate) is not False:
                        literals[1], literals[position] = literals[position], literals[1]
                        self._watches.setdefault(candidate, []).append(clause_index)
                        replaced = True
                        break
                if replaced:
                    continue
                # No replacement: clause is unit or conflicting.
                new_watch_list.append(clause_index)
                if self._value(first) is False:
                    # Conflict: keep remaining watches and report.
                    new_watch_list.extend(watch_list[index_position:])
                    conflict = clause_index
                    break
                self._enqueue(first, clause_index)
            self._watches[falsified] = new_watch_list
            if conflict is not None:
                self._propagated = pointer
                return conflict
        self._propagated = pointer
        del queue_position
        return None

    # -- conflict analysis --------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: List[int] = []
        seen = [False] * (self.num_variables + 1)
        counter = 0
        literal: Optional[int] = None
        clause_literals = list(self._clauses[conflict_index].literals)
        trail_index = len(self._trail) - 1
        current_level = self._current_level()

        while True:
            for clause_literal in clause_literals:
                variable = abs(clause_literal)
                if seen[variable] or self._level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump_activity(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal on the trail to resolve on.
            while True:
                literal = self._trail[trail_index]
                trail_index -= 1
                if seen[abs(literal)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[abs(literal)]
            if reason_index is None:
                break
            clause_literals = [
                lit for lit in self._clauses[reason_index].literals if lit != literal
            ]
        assert literal is not None
        learned = [-literal] + learned
        if len(learned) == 1:
            return learned, 0
        backjump = max(self._level[abs(lit)] for lit in learned[1:])
        # Place a literal from the backjump level in the second watch position.
        for position in range(1, len(learned)):
            if self._level[abs(learned[position])] == backjump:
                learned[1], learned[position] = learned[position], learned[1]
                break
        return learned, backjump

    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            self._activity /= 1e100
            self._activity_increment /= 1e100

    def _decay_activity(self) -> None:
        self._activity_increment /= self.decay

    # -- backtracking -------------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        if self._current_level() <= level:
            return
        cutoff = self._trail_limits[level]
        for literal in self._trail[cutoff:]:
            variable = abs(literal)
            self._saved_phase[variable] = self._assignment[variable] is True
            self._assignment[variable] = None
            self._level[variable] = _UNASSIGNED
            self._reason[variable] = None
        del self._trail[cutoff:]
        del self._trail_limits[level:]
        self._propagated = min(getattr(self, "_propagated", 0), len(self._trail))

    # -- decision heuristics ---------------------------------------------------------------------
    def _pick_branch_variable(self) -> Optional[int]:
        unassigned = [
            variable
            for variable in range(1, self.num_variables + 1)
            if self._assignment[variable] is None
        ]
        if not unassigned:
            return None
        if self._rng.random() < self.random_decision_rate:
            return int(self._rng.choice(unassigned))
        activities = self._activity[unassigned]
        best = int(np.argmax(activities))
        return unassigned[best]

    def _pick_polarity(self, variable: int) -> bool:
        if self.random_polarity:
            return bool(self._rng.random() < 0.5)
        return self._saved_phase[variable]

    # -- main loop ----------------------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        """Solve the formula (optionally under assumption literals)."""
        result = SolverResult(satisfiable=None)
        if self._empty_clause:
            result.satisfiable = False
            return result
        self._reset_state()

        # Apply unit clauses and assumptions as level-0 enqueues.
        for literal in list(self._units) + list(assumptions):
            if not self._enqueue(literal, None):
                result.satisfiable = False
                return result

        conflicts_since_restart = 0
        restart_count = 0
        restart_limit = self.restart_interval * _luby(0)

        while True:
            conflict = self._propagate(result)
            if conflict is not None:
                result.conflicts += 1
                conflicts_since_restart += 1
                if self.max_conflicts is not None and result.conflicts >= self.max_conflicts:
                    result.satisfiable = None
                    return result
                if self._current_level() == 0:
                    result.satisfiable = False
                    return result
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                clause_index = self._add_clause(learned, learned=True)
                result.learned_clauses += 1
                self._decay_activity()
                if clause_index is not None and len(learned) > 1:
                    self._enqueue(learned[0], clause_index)
                elif len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        result.satisfiable = False
                        return result
                continue

            if conflicts_since_restart >= restart_limit:
                restart_count += 1
                result.restarts += 1
                conflicts_since_restart = 0
                restart_limit = self.restart_interval * _luby(restart_count)
                self._backtrack(0)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                result.satisfiable = True
                result.assignment = self._extract_assignment()
                return result
            result.decisions += 1
            self._trail_limits.append(len(self._trail))
            polarity = self._pick_polarity(variable)
            self._enqueue(variable if polarity else -variable, None)

    def _reset_state(self) -> None:
        self._assignment = [None] * (self.num_variables + 1)
        self._level = [_UNASSIGNED] * (self.num_variables + 1)
        self._reason = [None] * (self.num_variables + 1)
        self._trail = []
        self._trail_limits = []
        self._propagated = 0
        # Drop learned clauses from previous calls to keep repeated sampling
        # calls independent (and memory bounded).
        keep = [clause for clause in self._clauses if not clause.learned]
        if len(keep) != len(self._clauses):
            self._clauses = keep
            self._watches = {}
            for index, clause in enumerate(self._clauses):
                for watch_literal in clause.literals[:2]:
                    self._watches.setdefault(watch_literal, []).append(index)

    def _extract_assignment(self) -> np.ndarray:
        values = np.zeros(self.num_variables, dtype=bool)
        for variable in range(1, self.num_variables + 1):
            value = self._assignment[variable]
            values[variable - 1] = bool(value) if value is not None else bool(
                self._rng.random() < 0.5
            )
        return values
