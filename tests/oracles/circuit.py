"""Reference oracle: the object pipeline from expressions to an optimized circuit.

Before the netlist became a gate table, :func:`repro.circuit.builder.circuit_from_expressions`
lowered each expression node into a :class:`~repro.circuit.gates.Gate`
record keyed by its ``n<k>`` net name, and
:func:`repro.circuit.optimize.optimize_circuit` walked those records by name:
its alias, constant and structural-hashing maps were keyed on names, and a
commutative gate's key sorted its fanin names.  This module keeps both
verbatim as the reference the integer-table builder and optimizer are
tested against; the only change is that they reach the netlist through its
public API (``add_input``/``add_gate``/``add_constant``, ``gate()`` views,
``from_table`` to install the emitted order).  They share the
constant-folding rules (:func:`~repro.circuit.optimize._fold_gate`) with the
library, which has a single implementation of them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.boolalg.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import Gate, GateType, _SOURCE_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.optimize import _COMMUTATIVE, _fold_gate

#: (gate type, canonically ordered fanins) key used for structural hashing.
_StrashKey = Tuple[GateType, Tuple[str, ...]]


def circuit_from_expressions_reference(
    definitions: Sequence[Tuple[str, Expr]],
    outputs: Optional[Iterable[str]] = None,
    inputs: Optional[Iterable[str]] = None,
    name: str = "circuit",
) -> Circuit:
    """The object builder: one named gate per operator node."""
    builder = CircuitBuilder(name)
    circuit = builder.circuit
    defined_names = {net for net, _ in definitions}

    for input_name in inputs or []:
        circuit.add_input(input_name)

    def ensure_net(variable: str) -> str:
        if circuit.has_net(variable):
            return variable
        if variable in defined_names:
            raise ValueError(
                f"definition of {variable!r} is used before it is defined; "
                "definitions must be topologically ordered"
            )
        circuit.add_input(variable)
        return variable

    def lower_gate(gate_type: GateType, fanins: Tuple[str, ...]) -> str:
        return builder.gate(gate_type, fanins)

    def lower(expr: Expr) -> str:
        if isinstance(expr, Const):
            return builder.constant(expr.value)
        if isinstance(expr, Var):
            return ensure_net(expr.name)
        if isinstance(expr, Not):
            return lower_gate(GateType.NOT, (lower(expr.operand),))
        if isinstance(expr, And):
            return lower_gate(GateType.AND, tuple(lower(op) for op in expr.operands))
        if isinstance(expr, Or):
            return lower_gate(GateType.OR, tuple(lower(op) for op in expr.operands))
        if isinstance(expr, Xor):
            return lower_gate(GateType.XOR, tuple(lower(op) for op in expr.operands))
        raise TypeError(f"unsupported expression node {type(expr).__name__}")

    for net_name, expr in definitions:
        if circuit.has_net(net_name):
            raise ValueError(f"net {net_name!r} defined twice")
        driver = lower(expr)
        circuit.add_gate(net_name, GateType.BUF, (driver,))

    if outputs is not None:
        for output_name in outputs:
            circuit.set_output(output_name)
    else:
        consumed = set()
        for gate in circuit.gates:
            consumed.update(gate.fanins)
        for net_name, _ in definitions:
            if net_name not in consumed:
                circuit.set_output(net_name)
    return circuit


def _strash_key(gate_type: GateType, fanins: Tuple[str, ...]) -> _StrashKey:
    """The structural-hashing key: commutative fanins in sorted order."""
    if gate_type in _COMMUTATIVE:
        if len(fanins) == 2:
            first, second = fanins
            if second < first:
                fanins = (second, first)
        else:
            fanins = tuple(sorted(fanins))
    return gate_type, fanins


def optimize_circuit_reference(circuit: Circuit) -> Circuit:
    """The one-pass optimizer over named gate records (see
    :func:`repro.circuit.optimize.optimize_circuit` for the contract)."""
    output_set = set(circuit.outputs)
    unchecked = Gate.unchecked
    alias: Dict[str, str] = {}  # collapsed net -> the net that replaces it
    constant: Dict[str, bool] = {}  # constant-valued net -> its value
    canonical: Dict[_StrashKey, str] = {}
    owner: Dict[str, str] = {}  # kept non-output net -> the output taking it over
    kept: Dict[str, Gate] = {}
    order: List[str] = []

    for name in circuit.topological_order():
        gate = circuit.gate(name)
        gate_type = gate.gate_type
        if gate_type is GateType.INPUT:
            continue
        if gate_type in _SOURCE_TYPES:
            constant[name] = gate_type is GateType.CONST1
            kept[name] = gate
            order.append(name)
            continue
        fanins = gate.fanins
        if alias:
            fanins = tuple([alias.get(f, f) for f in fanins])
        if constant:
            fanin_consts = [constant.get(f) for f in fanins]
            if fanin_consts.count(None) < len(fanin_consts):
                gate_type, fanins, value = _fold_gate(gate_type, fanins, fanin_consts)
                if value is not None:
                    # Swept below unless it is an output: every consumer folds it.
                    constant[name] = value
                    kept[name] = unchecked(
                        name, GateType.CONST1 if value else GateType.CONST0
                    )
                    order.append(name)
                    continue
        is_output = name in output_set
        if gate_type is GateType.BUF and not is_output:
            alias[name] = fanins[0]
            continue
        key = _strash_key(gate_type, fanins)
        existing = canonical.get(key)
        if existing is not None:
            if not is_output:
                alias[name] = existing
                continue
            if existing not in output_set and existing not in owner:
                # The first output duplicating a non-output net takes it
                # over: the kept gate is emitted under the output's name.
                owner[existing] = name
                alias[name] = existing
                continue
            # Any other output becomes the last buffer of the chain behind
            # ``existing`` (no two buffers share a fanin).
            key = (GateType.BUF, (existing,))
            while key in canonical:
                key = (GateType.BUF, (canonical[key],))
            gate_type, fanins = key
        canonical[key] = name
        if gate_type is not gate.gate_type or fanins != gate.fanins:
            gate = unchecked(name, gate_type, fanins)
        kept[name] = gate
        order.append(name)

    live: Set[str] = {alias.get(output, output) for output in circuit.outputs}
    stack = list(live)
    while stack:
        gate = kept.get(stack.pop())  # None for a primary input
        if gate is not None:
            for fanin in gate.fanins:
                if fanin not in live:
                    live.add(fanin)
                    stack.append(fanin)

    optimized = Circuit(circuit.name)
    for name in circuit.inputs:
        optimized.add_input(name)
    for name in order:
        if name in live:
            gate = kept[name]
            if owner:
                fanins = tuple([owner.get(f, f) for f in gate.fanins])
                if name in owner or fanins != gate.fanins:
                    gate = unchecked(owner.get(name, name), gate.gate_type, fanins)
            if gate.gate_type in _SOURCE_TYPES:
                optimized.add_constant(gate.name, gate.gate_type is GateType.CONST1)
            else:
                optimized.add_gate(gate.name, gate.gate_type, gate.fanins)
    # The emitted order is the result's topological order.
    return Circuit.from_table(
        optimized.name,
        optimized.net_names(),
        optimized.types,
        *optimized.fanin_csr(),
        outputs=circuit.outputs,
        topological=True,
    )


def fanouts(circuit: Circuit) -> Dict[str, List[str]]:
    """Map each net to the gates that read it, in row order (one entry per read)."""
    readers: Dict[str, List[str]] = {name: [] for name in circuit.net_names()}
    for gate in circuit.gates:
        for fanin in gate.fanins:
            readers[fanin].append(gate.name)
    return readers
