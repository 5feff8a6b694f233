"""Independent output check: every returned row against the original DIMACS.

This module shares no code with ``repro.cnf``.  The DIMACS reader is a plain
token scan and the clause check bit-packs the rows per variable, gathers one
packed row per literal, flips the negated ones and ORs each clause's span
with ``np.bitwise_or.reduceat``.  A bug in the program's own evaluation
kernel therefore cannot hide a wrong solution from the benchmark.

:class:`OutputDigest` hashes the solution sets of a run's first jobs, which
depend only on the workload seed, so two commits can be compared for
bitwise-identical output.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

#: Rows checked per vectorised pass (bounds the literals x rows/8 scratch).
_CHUNK_ROWS = 4096


def read_dimacs(text: str) -> Tuple[int, List[np.ndarray]]:
    """``(num_variables, clauses)`` of a DIMACS CNF document.

    Comment lines, a ``%`` trailer and stray ``0`` tokens are tolerated; a
    literal beyond the declared variable count widens the formula.
    """
    num_variables = 0
    body = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped[0] == "c":
            continue
        if stripped[0] == "%":
            break
        if stripped[0] == "p":
            num_variables = int(stripped.split()[2])
            continue
        body.append(stripped)
    tokens = np.array(" ".join(body).split(), dtype=np.int64)
    pieces = np.split(tokens, np.flatnonzero(tokens == 0))
    clauses = [piece[piece != 0] for piece in pieces]
    clauses = [clause for clause in clauses if clause.size]
    if clauses:
        num_variables = max(num_variables, int(np.abs(np.concatenate(clauses)).max()))
    return num_variables, clauses


class ClauseChecker:
    """Checks boolean assignment rows (column ``j`` = variable ``j + 1``)."""

    def __init__(self, num_variables: int, clauses: Sequence[Sequence[int]]) -> None:
        if any(len(clause) == 0 for clause in clauses):
            raise ValueError("an empty clause is unsatisfiable")
        self.num_variables = int(num_variables)
        self.clauses = [np.asarray(clause, dtype=np.int64) for clause in clauses]
        literals = (
            np.concatenate(self.clauses) if self.clauses else np.zeros(0, dtype=np.int64)
        )
        if literals.size and np.abs(literals).max() > self.num_variables:
            raise ValueError("a literal names a variable beyond num_variables")
        self._columns = np.abs(literals) - 1
        self._negated = literals < 0
        lengths = np.array([len(clause) for clause in self.clauses], dtype=np.int64)
        self._starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)

    @classmethod
    def from_dimacs(cls, text: str) -> "ClauseChecker":
        return cls(*read_dimacs(text))

    def with_clause(self, clause: Sequence[int], num_variables: int) -> "ClauseChecker":
        """This formula plus one clause, over ``num_variables`` variables."""
        return ClauseChecker(num_variables, self.clauses + [np.asarray(clause)])

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def satisfied(self, rows: np.ndarray) -> np.ndarray:
        """Per-row verdict: does the row satisfy every clause?"""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise ValueError(
                f"expected rows of width {self.num_variables}, got shape {rows.shape}"
            )
        if not self.clauses:
            return np.ones(rows.shape[0], dtype=bool)
        verdicts = np.empty(rows.shape[0], dtype=bool)
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS].astype(bool)
            # One bit per row: variable j's values are bit-packed row j.
            by_variable = np.ascontiguousarray(np.packbits(chunk, axis=0).T)
            literal_true = by_variable[self._columns]
            literal_true[self._negated] ^= 0xFF
            clause_true = np.bitwise_or.reduceat(literal_true, self._starts, axis=0)
            all_true = np.bitwise_and.reduce(clause_true, axis=0)
            verdicts[start:start + len(chunk)] = np.unpackbits(all_true, count=len(chunk))
        return verdicts


def count_duplicate_rows(rows: np.ndarray) -> int:
    """Rows that repeat an earlier row (a job must return a set)."""
    if rows.shape[0] == 0:
        return 0
    packed = np.packbits(rows.astype(bool), axis=1)
    return rows.shape[0] - len({row.tobytes() for row in packed})


class OutputDigest:
    """SHA-256 over the solution matrices of a run's first ``limit`` jobs."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.jobs = 0
        self._hash = hashlib.sha256()

    def add(self, rows: np.ndarray) -> None:
        if self.jobs >= self.limit:
            return
        self.jobs += 1
        self._hash.update(np.asarray(rows.shape, dtype=np.int64).tobytes())
        self._hash.update(np.packbits(rows.astype(bool), axis=1).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
