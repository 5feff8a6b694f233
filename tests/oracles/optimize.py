"""Reference oracle: the separate optimization passes iterated to a fixed point.

Before the one-pass :func:`repro.circuit.optimize.optimize_circuit`, the
optimizer rebuilt the netlist once per pass and repeated constant
propagation, structural hashing and the dangling sweep until a round changed
no count, with at most four rounds.  Structural hashing keyed each gate on
its fanin *names* as they stood when the pass began, so a cascade of
duplicates took one round per level.  This module keeps those passes
verbatim as the reference the one-pass optimizer is tested against,
reaching the netlist through its public API.  It
shares the constant-folding rules (:func:`~repro.circuit.optimize._fold_gate`)
with the library, which has a single implementation of them.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.circuit.gates import GateType, _SOURCE_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.optimize import _COMMUTATIVE, _fold_gate

#: (gate type, sorted fanins) key used for structural hashing.
_StrashKey = Tuple[str, Tuple[str, ...]]


def _add(circuit: Circuit, name: str, gate_type: GateType, fanins: Tuple[str, ...]) -> None:
    """Append one gate through the netlist's public API."""
    if gate_type in _SOURCE_TYPES:
        circuit.add_constant(name, gate_type is GateType.CONST1)
    else:
        circuit.add_gate(name, gate_type, fanins)


def _rebuild(
    circuit: Circuit, replacement: Dict[str, Tuple[GateType, Tuple[str, ...]]]
) -> Circuit:
    """Rebuild a circuit applying per-net replacement functions.

    ``replacement`` maps net name to its new ``(type, fanins)``; nets not in
    the map keep their original definition.  Primary inputs and outputs are
    preserved.  Fanin references are resolved through the replacement map so
    that nets rewritten into buffers of other nets are bypassed.
    """
    rebuilt = Circuit(circuit.name)
    alias: Dict[str, str] = {}
    output_set = set(circuit.outputs)

    def resolve(name: str) -> str:
        seen = set()
        while name in alias and name not in seen:
            seen.add(name)
            name = alias[name]
        return name

    for name in circuit.topological_order():
        gate = circuit.gate(name)
        replaced = replacement.get(name)
        if replaced is None:
            gate_type, fanins = gate.gate_type, gate.fanins
        else:
            gate_type, fanins = replaced
        if gate_type == GateType.INPUT:
            rebuilt.add_input(name)
            continue
        if alias:
            fanins = tuple(resolve(f) for f in fanins)
        if gate_type == GateType.BUF and name not in output_set:
            # Collapse pure buffers by aliasing, unless the net is an output
            # (outputs must keep their name).
            alias[name] = fanins[0]
            continue
        _add(rebuilt, name, gate_type, fanins)

    for output in circuit.outputs:
        resolved = resolve(output)
        rebuilt.set_output(resolved)
        if resolved != output and not rebuilt.has_net(output):
            # Preserve the output's name with an explicit buffer.
            rebuilt.add_gate(output, GateType.BUF, [resolved])
            rebuilt.set_output(output)
    return rebuilt


def constant_propagate(circuit: Circuit) -> Circuit:
    """Fold gates whose fanins include constants; returns a new circuit."""
    if not any(
        gate.gate_type is GateType.CONST0 or gate.gate_type is GateType.CONST1
        for gate in circuit.gates
    ):
        # Without constant drivers no gate can fold, so the pass reduces to
        # the plain rebuild (which still collapses non-output buffers).
        return _rebuild(circuit, {})

    constant: Dict[str, bool] = {}
    replacement: Dict[str, Tuple[GateType, Tuple[str, ...]]] = {}

    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gate_type == GateType.CONST0:
            constant[name] = False
            continue
        if gate.gate_type == GateType.CONST1:
            constant[name] = True
            continue
        if gate.gate_type.is_source:
            continue
        fanin_consts = [constant.get(f) for f in gate.fanins]
        new_type, new_fanins, const_value = _fold_gate(
            gate.gate_type, gate.fanins, fanin_consts
        )
        if const_value is not None:
            constant[name] = const_value
            replacement[name] = (
                GateType.CONST1 if const_value else GateType.CONST0,
                (),
            )
        elif (new_type, new_fanins) != (gate.gate_type, gate.fanins):
            replacement[name] = (new_type, new_fanins)
    return _rebuild(circuit, replacement)


def strash(circuit: Circuit) -> Circuit:
    """Structural hashing: merge gates with identical (type, fanins) definitions."""
    canonical: Dict[_StrashKey, str] = {}
    replacement: Dict[str, Tuple[GateType, Tuple[str, ...]]] = {}

    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gate_type in _SOURCE_TYPES:
            continue
        fanins = gate.fanins
        if gate.gate_type in _COMMUTATIVE:
            if len(fanins) == 2:
                first, second = fanins
                if second < first:
                    fanins = (second, first)
            else:
                fanins = tuple(sorted(fanins))
        key: _StrashKey = (gate.gate_type.value, fanins)
        existing = canonical.get(key)
        if existing is None:
            canonical[key] = name
        else:
            replacement[name] = (GateType.BUF, (existing,))
    return _rebuild(circuit, replacement)


def sweep_dangling(circuit: Circuit) -> Circuit:
    """Remove gates that feed no primary output (keep all primary inputs)."""
    keep = circuit.transitive_fanin(circuit.outputs)
    swept = Circuit(circuit.name)
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        if gate.gate_type == GateType.INPUT:
            swept.add_input(name)
            continue
        if name not in keep:
            continue
        _add(swept, name, gate.gate_type, gate.fanins)
    for output in circuit.outputs:
        swept.set_output(output)
    return swept


def optimize_reference(circuit: Circuit, max_rounds: int = 4) -> Circuit:
    """Run constant propagation, structural hashing and sweeping to a fixed point."""
    current = circuit
    for _ in range(max_rounds):
        before = (len(current), current.num_gates)
        current = constant_propagate(current)
        current = strash(current)
        if current.outputs:
            current = sweep_dangling(current)
        if (len(current), current.num_gates) == before:
            break
    return current
