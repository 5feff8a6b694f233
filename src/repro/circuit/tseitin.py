"""Tseitin encoding of circuits into CNF.

This is the *inverse* of the paper's transformation: given a multi-level,
multi-output circuit, produce the equisatisfiable CNF that a conventional
sampler would consume.  The benchmark-instance generators use it to
manufacture CNFs with exactly the clause structure (gate signatures,
Eqs. 1--4) that Algorithm 1 is designed to recover, and the round-trip
``circuit -> CNF -> transform -> circuit`` is one of the core integration
tests of the reproduction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.gates import Gate, GateType
from repro.circuit.netlist import Circuit
from repro.cnf.formula import CNF


def circuit_to_cnf(
    circuit: Circuit,
    output_constraints: Optional[Dict[str, bool]] = None,
    annotate: bool = True,
) -> Tuple[CNF, Dict[str, int]]:
    """Tseitin-encode ``circuit`` into a CNF.

    ``output_constraints`` maps primary-output net names to required values;
    when omitted every primary output is constrained to 1 (the usual
    convention for verification-style instances).  Returns ``(cnf, var_map)``
    where ``var_map`` maps net names to DIMACS variable indices.

    When ``annotate`` is true, a comment is emitted before each gate's clause
    group naming the gate it encodes, mirroring the annotated CNF example of
    the paper's Fig. 1(a).
    """
    var_map: Dict[str, int] = {}
    next_index = 1
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gate_type == GateType.BUF:
            # Buffers reuse their fanin's variable: no clauses needed.
            continue
        var_map[name] = next_index
        next_index += 1

    def net_index(name: str) -> int:
        gate = circuit.gate(name)
        while gate.gate_type == GateType.BUF:
            name = gate.fanins[0]
            gate = circuit.gate(name)
        return var_map[name]

    if output_constraints is None:
        output_constraints = {name: True for name in circuit.outputs}

    clauses: List[List[int]] = []
    comments: List[str] = []
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gate_type in (GateType.INPUT, GateType.BUF):
            continue
        output_lit = net_index(name)
        fanin_lits = [net_index(f) for f in gate.fanins]
        if annotate:
            comments.append(_gate_comment(gate))
        clauses.extend(_gate_clauses(gate.gate_type, output_lit, fanin_lits))

    for output_name, value in output_constraints.items():
        literal = net_index(output_name)
        clauses.append([literal if value else -literal])
        if annotate:
            comments.append(f"{output_name} = {1 if value else 0}")
    formula = CNF(clauses, num_variables=next_index - 1, comments=comments, name=circuit.name)
    return formula, dict(var_map)


def _gate_comment(gate: Gate) -> str:
    operands = ", ".join(gate.fanins)
    return f"{gate.name} = {gate.gate_type.value}({operands})"


def _gate_clauses(
    gate_type: GateType, out: int, fanins: Sequence[int]
) -> List[List[int]]:
    """CNF signature of a single gate (Eqs. 1-4 of the paper)."""
    if gate_type == GateType.CONST0:
        return [[-out]]
    if gate_type == GateType.CONST1:
        return [[out]]
    if gate_type == GateType.NOT:
        (a,) = fanins
        return [[out, a], [-out, -a]]
    if gate_type == GateType.AND:
        clauses = [[out] + [-lit for lit in fanins]]
        clauses.extend([[-out, lit] for lit in fanins])
        return clauses
    if gate_type == GateType.NAND:
        clauses = [[-out] + [-lit for lit in fanins]]
        clauses.extend([[out, lit] for lit in fanins])
        return clauses
    if gate_type == GateType.OR:
        clauses = [[-out] + list(fanins)]
        clauses.extend([[out, -lit] for lit in fanins])
        return clauses
    if gate_type == GateType.NOR:
        clauses = [[out] + list(fanins)]
        clauses.extend([[-out, -lit] for lit in fanins])
        return clauses
    if gate_type in (GateType.XOR, GateType.XNOR):
        return _xor_clauses(out, list(fanins), invert=(gate_type == GateType.XNOR))
    raise ValueError(f"unsupported gate type {gate_type}")


def _xor_clauses(out: int, fanins: List[int], invert: bool) -> List[List[int]]:
    """Clauses asserting ``out == XOR(fanins)`` (or XNOR when ``invert``).

    The constraint ``XNOR(x1..xn, f) == 1`` holds exactly when an odd number of
    the literals in each clause are negated; for arity 2 this is the familiar
    four-clause signature.  Larger arities are chained pairwise, which keeps
    every emitted clause at width 3 without auxiliary-variable blow-up.
    """
    if len(fanins) == 1:
        a = fanins[0]
        if invert:
            return [[out, a], [-out, -a]]
        return [[-out, a], [out, -a]]
    if len(fanins) == 2:
        a, b = fanins
        if invert:
            return [[-out, a, -b], [-out, -a, b], [out, a, b], [out, -a, -b]]
        return [[-out, a, b], [-out, -a, -b], [out, a, -b], [out, -a, b]]
    raise ValueError(
        "XOR/XNOR gates wider than 2 inputs must be decomposed before Tseitin "
        "encoding (use Circuit optimization or the builder's pairwise chaining)"
    )
