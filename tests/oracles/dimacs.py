"""Reference oracle: the line-by-line DIMACS reader.

Before the reader read a whole document into CSR arrays
(:func:`repro.cnf.dimacs.parse_dimacs`), it walked the text one line and one
token at a time and built the formula clause by clause.  This is that loop,
verbatim; the shipped reader must agree with it on clauses, comments,
variable count, error class and the line an error names, for every
literal within ``2**31 - 1``.  Beyond it this loop reads the literal and
the formula built from its clause list raises a bare :class:`ValueError`,
while the shipped reader raises a :class:`DimacsError` naming the line.
"""

from __future__ import annotations

import io
from typing import List

from repro.cnf.dimacs import DimacsError
from repro.cnf.formula import CNF


def parse_dimacs_reference(text: str, name: str = "") -> CNF:
    """Parse DIMACS CNF text into a :class:`~repro.cnf.formula.CNF`.

    Stray ``0`` tokens with no pending literals (trailer lines emitted by some
    generators) are ignored rather than being interpreted as empty clauses.
    A header's counts must be non-negative, and with a header every literal
    must lie within its declared variables; either violation is a
    :class:`DimacsError` naming the offending line.
    """
    declared_vars = 0
    declared_clauses = -1
    header_line = 0
    #: The literal of largest magnitude read so far, and its line.
    widest, widest_line = 0, 0
    comments: List[str] = []
    clauses: List[List[int]] = []
    pending: List[int] = []

    for line_number, raw_line in enumerate(io.StringIO(text), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise DimacsError(f"line {line_number}: malformed header {line!r}")
            try:
                declared_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_number}: non-integer header fields") from exc
            if declared_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {line_number}: negative header count in {line!r}")
            header_line = line_number
            if widest > declared_vars:
                _beyond_header(widest, widest_line, declared_vars, header_line)
            continue
        for token in line.split():
            try:
                literal = int(token)
            except ValueError as exc:
                raise DimacsError(
                    f"line {line_number}: expected integer literal, got {token!r}"
                ) from exc
            if literal == 0:
                if pending:
                    clauses.append(pending)
                    pending = []
                continue
            if abs(literal) > widest:
                widest, widest_line = abs(literal), line_number
                if header_line and widest > declared_vars:
                    _beyond_header(widest, widest_line, declared_vars, header_line)
            pending.append(literal)
    if pending:
        clauses.append(pending)

    formula = CNF(clauses, num_variables=declared_vars, comments=comments, name=name)
    if declared_clauses >= 0 and formula.num_clauses != declared_clauses:
        # Header mismatches are common in the wild; record rather than fail.
        formula.comments.append(
            f"header declared {declared_clauses} clauses but {formula.num_clauses} were read"
        )
    return formula


def _beyond_header(variable: int, line_number: int, declared: int, header_line: int) -> None:
    raise DimacsError(
        f"line {line_number}: variable {variable} is beyond the {declared} "
        f"declared on line {header_line}"
    )
