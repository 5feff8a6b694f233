"""DIMACS CNF reader and writer.

The reader is tolerant of the common irregularities found in public benchmark
suites: comment lines anywhere, clauses spanning multiple physical lines,
missing or under-counted ``p cnf`` headers, and ``%`` / ``0`` trailer lines
produced by some generators.  Comments are preserved because the paper's
Fig. 1 example annotates each clause group with the gate it encodes.

Lines end at ``\n`` only.  One regular expression finds the ``c``/``p``/``%``
lines; the clause text between two of them is split and read by ``int`` in
one C-level ``map``, and every literal of the document lands in the
formula's CSR arrays (:meth:`~repro.cnf.formula.CNF.from_csr`) with no
per-clause object built.  A run of clause text that does
not read cleanly is walked again line by line and token by token to name
the line at fault.  Errors are :class:`DimacsError` s raised in line order:
a malformed or negative header, a token ``int`` rejects, a literal beyond
the header's variables, and a literal beyond ``2**31 - 1`` (the largest an
``int32`` literal holds), with or without a header.  Files are UTF-8: a
byte that is not is a :class:`DimacsError` naming its line.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.cnf.formula import CNF, MAX_VARIABLE


class DimacsError(ValueError):
    """Raised when a DIMACS document is malformed beyond recovery."""


#: A comment, header or trailer line: the first character that is not
#: blank (in the sense of :meth:`str.strip`) is ``c``, ``p`` or ``%``.
_SPECIAL_LINE = re.compile(r"^[^\S\n]*[cp%].*", re.MULTILINE)


def parse_dimacs(text: str, name: str = "") -> CNF:
    """Parse DIMACS CNF text into a :class:`~repro.cnf.formula.CNF`.

    Stray ``0`` tokens with no pending literals (trailer lines emitted by some
    generators) are ignored rather than being interpreted as empty clauses.
    A header's counts must be non-negative and its variable count at most
    ``2**31 - 1``, and with a header every literal must lie within its
    declared variables; each violation is a :class:`DimacsError` naming the
    offending line, as is a literal beyond ``2**31 - 1``.
    """
    declared_vars, declared_clauses, header_line = 0, -1, 0
    #: The largest literal magnitude so far, and the clause text (with its
    #: first line) where it first appears.
    widest, widest_run = 0, ("", 0)
    comments: List[str] = []
    values: List[int] = []
    position, line_number = 0, 1
    for match in chain(_SPECIAL_LINE.finditer(text), [None]):
        run = text[position : match.start() if match else len(text)]
        tokens = run.split()
        if tokens:
            bound = declared_vars if header_line else MAX_VARIABLE
            try:
                run_values = [*map(int, tokens)]
                magnitude = max(max(run_values), -min(run_values))
            except ValueError:
                magnitude = bound + 1
            if magnitude > bound:
                _refuse(run, line_number, declared_vars, header_line)
            if magnitude > widest:
                widest, widest_run = magnitude, (run, line_number)
            values += run_values
        if match is None:
            break
        line_number += run.count("\n")
        position = match.end()
        line = match.group().strip()
        if line[0] == "%":
            break
        if line[0] == "c":
            comments.append(line[1:].strip())
            continue
        declared_vars, declared_clauses = _header(line, line_number)
        header_line = line_number
        if widest > declared_vars:
            _beyond_header(widest, _line_of(widest, *widest_run), declared_vars, header_line)

    # Each 0 ends the clause its run of literals makes; a run ending the
    # body is a clause too, and a 0 after a 0 ends nothing.
    values = np.array(values, dtype=np.int64)
    nonzero = values != 0
    literals = values[nonzero]
    runs = np.cumsum(~nonzero)[nonzero]
    offsets = np.append(np.flatnonzero(np.diff(runs, prepend=-1)), literals.size)
    formula = CNF.from_csr(literals, offsets, declared_vars, comments, name)
    if declared_clauses >= 0 and formula.num_clauses != declared_clauses:
        # Header mismatches are common in the wild; record rather than fail.
        formula.comments.append(
            f"header declared {declared_clauses} clauses but {formula.num_clauses} were read"
        )
    return formula


def _refuse(run: str, first_line: int, declared_vars: int, header_line: int) -> None:
    """Raise the error of the first token of ``run`` that is not an
    integer or is beyond the variables a literal may name."""
    for line_number, line in enumerate(run.split("\n"), start=first_line):
        for token in line.split():
            try:
                magnitude = abs(int(token))
            except ValueError:
                raise DimacsError(
                    f"line {line_number}: expected integer literal, got {token!r}"
                ) from None
            if header_line and magnitude > declared_vars:
                _beyond_header(magnitude, line_number, declared_vars, header_line)
            if magnitude > MAX_VARIABLE:
                raise DimacsError(
                    f"line {line_number}: literal {token} is beyond the largest "
                    f"variable, {MAX_VARIABLE}"
                )
    raise AssertionError("a refused run holds a bad token")


def _line_of(magnitude: int, run: str, first_line: int) -> int:
    """The first line of ``run`` with a literal of ``magnitude``."""
    for line_number, line in enumerate(run.split("\n"), start=first_line):
        if any(abs(int(token)) == magnitude for token in line.split()):
            return line_number
    raise AssertionError("the run holds its widest literal")


def _header(line: str, line_number: int) -> Tuple[int, int]:
    """``(variables, clauses)`` a ``p cnf`` line declares."""
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
    if declared_vars > MAX_VARIABLE:
        raise DimacsError(
            f"line {line_number}: header count {declared_vars} is beyond the "
            f"largest variable, {MAX_VARIABLE}"
        )
    return declared_vars, declared_clauses


def _beyond_header(variable: int, line_number: int, declared: int, header_line: int) -> None:
    raise DimacsError(
        f"line {line_number}: variable {variable} is beyond the {declared} "
        f"declared on line {header_line}"
    )


def decode_dimacs(data: bytes) -> str:
    """The text of a DIMACS file's bytes: UTF-8, with ``\r\n`` and ``\r``
    read as ``\n`` (as text-mode reads translate them).

    A byte sequence that is not UTF-8 is a :class:`DimacsError` naming the
    line it is on.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        before = data[: error.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line_number = before.count(b"\n") + 1
        raise DimacsError(
            f"line {line_number}: byte 0x{data[error.start]:02x} is not UTF-8"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_dimacs_file(path: Union[str, Path]) -> CNF:
    """Parse a DIMACS CNF file (UTF-8; see :func:`decode_dimacs`)."""
    path = Path(path)
    return parse_dimacs(decode_dimacs(path.read_bytes()), name=path.stem)


def write_dimacs(formula: CNF, include_comments: bool = True) -> str:
    """Serialise a formula to DIMACS CNF text."""
    lines: List[str] = []
    if include_comments:
        for comment in formula.comments:
            lines.append(f"c {comment}")
    lines.append(f"p cnf {formula.num_variables} {formula.num_clauses}")
    for clause in formula.clauses:
        body = " ".join(str(literal) for literal in clause)
        lines.append(f"{body} 0".strip())
    return "\n".join(lines) + "\n"


def write_dimacs_file(
    formula: CNF, path: Union[str, Path], include_comments: bool = True
) -> Path:
    """Write a formula to a DIMACS CNF file and return the path."""
    path = Path(path)
    path.write_text(write_dimacs(formula, include_comments=include_comments))
    return path
