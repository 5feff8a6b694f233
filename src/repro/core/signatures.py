"""CNF signatures of primary logic gates (Eqs. 1--4 of the paper).

The Tseitin transformation encodes each gate of the original circuit as a
fixed clause pattern — its *CNF signature*.  This module provides

* :func:`gate_signature_clauses` — emit the signature for a gate (used by the
  instance generators and tests), and
* :func:`match_gate_signature` — the pattern-matching fast path of the
  transformation: recognise a signature group and return the gate it encodes
  without running the generic extraction + complement check, and
* :func:`formula_signature` — a whole-*formula* signature: a stable content
  hash of the formula's CSR arrays, used by :mod:`repro.serve` and
  :mod:`repro.store` to key artifact caches and coalesce requests for the
  same instance.  It is version 2: a SHA-256 over the tag
  ``repro-cnf-v2``, the variable, clause and literal counts and the
  little-endian ``int32`` literals and ``int64`` offsets, so one formula
  has one key however it was built — parsed, built from int rows, edited
  by a delta or decoded from the store — and two formulas share a key
  exactly when they are equal (:meth:`CNF.__eq__
  <repro.cnf.formula.CNF.__eq__>` compares the same arrays).  Version 1
  hashed the clauses' DIMACS text, so its keys never equal a version 2 key.

The paper stresses that pattern matching alone is insufficient ("it is
impractical to store all possible Boolean patterns"); the generic extraction
in :mod:`repro.core.extraction` covers the rest, but matching the common
signatures first keeps the transformation fast on gate-encoded CNFs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.gates import GateType

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.cnf.formula
    from repro.cnf.formula import CNF


@dataclass(frozen=True)
class GateMatch:
    """A recognised gate: ``output`` is a DIMACS variable, fanins are signed literals."""

    gate_type: GateType
    output: int
    fanin_literals: Tuple[int, ...]


def formula_signature(formula: "CNF") -> str:
    """Stable content hash of a CNF formula (hex digest).

    Two formulas have the same signature exactly when they have the same
    ``num_variables`` and the same clause sequence, literal order included.
    The *order* of clauses is deliberately significant: Algorithm 1 scans
    them in order, so reordered formulas can recover different circuits and
    must not share compiled artifacts.

    The digest is independent of the process, the host's byte order, the
    formula's ``name`` and its comments, so it is a safe cross-process cache
    key — the property :mod:`repro.serve` relies on to coalesce requests and
    to route jobs to workers that already hold the compiled artifact.
    """
    literals, offsets = formula.literals, formula.offsets
    digest = hashlib.sha256(
        f"repro-cnf-v2 {formula.num_variables} "
        f"{offsets.size - 1} {literals.size}\n".encode()
    )
    digest.update(np.ascontiguousarray(literals, dtype="<i4"))
    digest.update(np.ascontiguousarray(offsets, dtype="<i8"))
    return digest.hexdigest()


def gate_signature_clauses(
    gate_type: GateType, output: int, fanin_literals: Sequence[int]
) -> List[List[int]]:
    """Return the CNF signature clauses of ``output = gate(fanins)``.

    ``fanin_literals`` are signed literals, so an inverted input is expressed
    by passing a negative literal.  XOR/XNOR support exactly two fanins (wider
    parities are chained by the caller).
    """
    fanins = list(fanin_literals)
    if gate_type == GateType.NOT:
        (a,) = fanins
        return [[output, a], [-output, -a]]
    if gate_type == GateType.BUF:
        (a,) = fanins
        return [[output, -a], [-output, a]]
    if gate_type == GateType.AND:
        return [[output] + [-lit for lit in fanins]] + [[-output, lit] for lit in fanins]
    if gate_type == GateType.NAND:
        return [[-output] + [-lit for lit in fanins]] + [[output, lit] for lit in fanins]
    if gate_type == GateType.OR:
        return [[-output] + list(fanins)] + [[output, -lit] for lit in fanins]
    if gate_type == GateType.NOR:
        return [[output] + list(fanins)] + [[-output, -lit] for lit in fanins]
    if gate_type in (GateType.XOR, GateType.XNOR):
        if len(fanins) != 2:
            raise ValueError("XOR/XNOR signatures support exactly 2 fanins")
        a, b = fanins
        out = output if gate_type == GateType.XOR else -output
        return [[-out, a, b], [-out, -a, -b], [out, a, -b], [out, -a, b]]
    raise ValueError(f"no CNF signature for gate type {gate_type}")


def match_gate_signature(
    candidate_output: int, clauses: Sequence[Sequence[int]]
) -> Optional[GateMatch]:
    """Recognise whether ``clauses`` form a gate signature with the given output.

    Returns a :class:`GateMatch` when the clause group is exactly the
    signature of a NOT/BUF, AND/NAND, OR/NOR, XOR/XNOR gate whose output is
    ``candidate_output``; returns ``None`` otherwise.  The match is exact —
    no missing or extra clauses are tolerated — so a successful match lets
    the transformation adopt the definition without a complement check.

    The clauses are ``int`` tuples, the formula's rows as the
    transformation reads them; the matcher dispatches on the
    group's *shape* (clause count and widths) before comparing literal sets,
    and operates on plain integer-literal frozensets.
    """
    count = len(clauses)
    if count < 2:
        return None
    groups = [frozenset(clause) for clause in clauses]
    # Shape dispatch: an inverter/buffer signature is two binary clauses, an
    # n-fanin AND/OR signature is one n+1-wide clause plus n binary clauses,
    # a 2-fanin XOR/XNOR signature is four ternary clauses.  The AND/OR shape
    # is tried before XOR for groups of four, matching the historical order.
    if count == 2:
        return _match_inverter(candidate_output, groups)
    result = _match_and_or(candidate_output, groups, count)
    if result is None and count == 4:
        result = _match_xor(candidate_output, groups)
    return result


def _match_inverter(output: int, groups: List[frozenset]) -> Optional[GateMatch]:
    first, second = groups
    if len(first) != 2 or len(second) != 2:
        return None
    variables = {abs(lit) for lit in first} | {abs(lit) for lit in second}
    variables.discard(abs(output))
    if len(variables) != 1:
        return None
    other = variables.pop()
    group_set = {first, second}
    # NOT: (f | a) & (~f | ~a);   BUF: (f | ~a) & (~f | a)
    if group_set == {frozenset({output, other}), frozenset({-output, -other})}:
        return GateMatch(GateType.NOT, abs(output), (other,))
    if group_set == {frozenset({output, -other}), frozenset({-output, other})}:
        return GateMatch(GateType.BUF, abs(output), (other,))
    return None


def _match_and_or(
    output: int, groups: List[frozenset], count: int
) -> Optional[GateMatch]:
    wide_clause = None
    binary: List[frozenset] = []
    for group in groups:
        size = len(group)
        if size == count:
            if wide_clause is not None:
                return None
            wide_clause = group
        elif size == 2:
            binary.append(group)
    if wide_clause is None or len(binary) != count - 1:
        return None
    # OR:  (~f | x1 | ... | xn) plus (f | ~xi) for each i.
    if -output in wide_clause:
        fanins = tuple(sorted(wide_clause - {-output}, key=abs))
        expected = {frozenset({output, -lit}) for lit in fanins}
        if set(binary) == expected and len(fanins) == len(binary):
            return GateMatch(GateType.OR, abs(output), fanins)
    # AND: (f | ~x1 | ... | ~xn) plus (~f | xi) for each i.
    if output in wide_clause:
        fanins = tuple(sorted((-lit for lit in wide_clause - {output}), key=abs))
        expected = {frozenset({-output, lit}) for lit in fanins}
        if set(binary) == expected and len(fanins) == len(binary):
            return GateMatch(GateType.AND, abs(output), fanins)
    return None


def _match_xor(output: int, groups: List[frozenset]) -> Optional[GateMatch]:
    variables = set()
    for group in groups:
        if len(group) != 3:
            return None
        variables.update(abs(lit) for lit in group)
    variables.discard(abs(output))
    if len(variables) != 2:
        return None
    a, b = sorted(variables)
    out = abs(output)
    group_set = set(groups)
    # XOR: (~f|a|b) (~f|~a|~b) (f|a|~b) (f|~a|b); XNOR negates f throughout.
    if group_set == {
        frozenset({-out, a, b}),
        frozenset({-out, -a, -b}),
        frozenset({out, a, -b}),
        frozenset({out, -a, b}),
    }:
        return GateMatch(GateType.XOR, out, (a, b))
    if group_set == {
        frozenset({out, a, b}),
        frozenset({out, -a, -b}),
        frozenset({-out, a, -b}),
        frozenset({-out, -a, b}),
    }:
        return GateMatch(GateType.XNOR, out, (a, b))
    return None
