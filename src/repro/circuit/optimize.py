"""Structural circuit optimization.

The paper notes the recovered multi-level function "can be further optimized
by leveraging other techniques ... for reducing the complexity of multi-level
logic circuits".  :func:`optimize_circuit` applies the standard cheap
techniques in one topological walk:

* constant propagation (gates with constant fanins are folded),
* buffer collapsing (non-output buffers are aliased to their fanin),
* structural hashing / common-subexpression elimination, keyed on each
  gate's type and *resolved* fanins, so the consumers of a merged duplicate
  are recognised as duplicates in the same walk, and
* dangling-gate sweeping (gates in no output cone are removed).

These reduce the 2-input gate-equivalent count the probabilistic model must
evaluate, which is precisely what the Fig. 4 (middle) ops-reduction ablation
measures.  The separate passes iterated to a fixed point are kept as the
reference in ``tests/oracles/optimize.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.circuit.gates import Gate, GateType, _SOURCE_TYPES
from repro.circuit.netlist import Circuit

#: (gate type, canonically ordered fanins) key used for structural hashing.
_StrashKey = Tuple[GateType, Tuple[str, ...]]

_COMMUTATIVE = {
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
}


def _fold_gate(
    gate_type: GateType, fanins: Tuple[str, ...], fanin_consts: Sequence[Optional[bool]]
) -> Tuple[GateType, Tuple[str, ...], Optional[bool]]:
    """Fold constant fanins of one gate.

    Returns ``(type, fanins, constant)`` where ``constant`` is a bool when the
    gate's value is fully determined and ``None`` otherwise.
    """
    if gate_type == GateType.BUF:
        return gate_type, fanins, fanin_consts[0]
    if gate_type == GateType.NOT:
        value = fanin_consts[0]
        return gate_type, fanins, (None if value is None else not value)

    variable_fanins = [f for f, c in zip(fanins, fanin_consts) if c is None]
    constants = [c for c in fanin_consts if c is not None]

    if gate_type in (GateType.AND, GateType.NAND):
        inverted = gate_type == GateType.NAND
        if any(c is False for c in constants):
            return gate_type, fanins, (True if inverted else False)
        if not variable_fanins:
            return gate_type, fanins, (not inverted if all(constants) else inverted)
        if len(variable_fanins) == 1:
            single_type = GateType.NOT if inverted else GateType.BUF
            return single_type, (variable_fanins[0],), None
        if len(variable_fanins) < len(fanins):
            return gate_type, tuple(variable_fanins), None
        return gate_type, fanins, None

    if gate_type in (GateType.OR, GateType.NOR):
        inverted = gate_type == GateType.NOR
        if any(c is True for c in constants):
            return gate_type, fanins, (False if inverted else True)
        if not variable_fanins:
            value = any(constants)
            return gate_type, fanins, (value ^ inverted)
        if len(variable_fanins) == 1:
            single_type = GateType.NOT if inverted else GateType.BUF
            return single_type, (variable_fanins[0],), None
        if len(variable_fanins) < len(fanins):
            return gate_type, tuple(variable_fanins), None
        return gate_type, fanins, None

    if gate_type in (GateType.XOR, GateType.XNOR):
        parity = sum(bool(c) for c in constants) % 2 == 1
        inverted = (gate_type == GateType.XNOR) ^ parity
        if not variable_fanins:
            return gate_type, fanins, inverted
        if len(variable_fanins) == 1:
            single_type = GateType.NOT if inverted else GateType.BUF
            return single_type, (variable_fanins[0],), None
        new_type = GateType.XNOR if inverted else GateType.XOR
        if len(variable_fanins) < len(fanins) or new_type != gate_type:
            return new_type, tuple(variable_fanins), None
        return gate_type, fanins, None

    return gate_type, fanins, None


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


def optimize_circuit(circuit: Circuit) -> Circuit:
    """Fold constants, collapse buffers, hash and sweep in one topological pass.

    Returns a new circuit with the same primary inputs (in declaration order)
    and outputs.  Every output keeps its name.  Of structurally identical
    nets, the first in topological order is kept; if it is not an output, the
    first output among its duplicates takes it over (the kept net is renamed),
    so the consumers of both end up reading one net.  Later duplicates that
    are outputs become buffers of it, and an output whose value folds
    becomes a constant.  The gates are emitted in topological order and that
    order is installed as the result's cached
    :meth:`~repro.circuit.netlist.Circuit.topological_order`, so compiling the
    result does not sort it again.  The pass is idempotent: optimizing the
    result returns the same gate list.
    """
    gates = circuit._gates
    output_set = circuit._output_set
    unchecked = Gate.unchecked
    alias: Dict[str, str] = {}  # collapsed net -> the net that replaces it
    constant: Dict[str, bool] = {}  # constant-valued net -> its value
    canonical: Dict[_StrashKey, str] = {}
    owner: Dict[str, str] = {}  # kept non-output net -> the output taking it over
    kept: Dict[str, Gate] = {}
    order: List[str] = []

    for name in circuit.topological_order():
        gate = gates[name]
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

    live: Set[str] = {alias.get(output, output) for output in circuit._outputs}
    stack = list(live)
    while stack:
        gate = kept.get(stack.pop())  # None for a primary input
        if gate is not None:
            for fanin in gate.fanins:
                if fanin not in live:
                    live.add(fanin)
                    stack.append(fanin)

    optimized = Circuit(circuit.name)
    for name in circuit._inputs:
        optimized._define_unchecked(gates[name], is_input=True)
    for name in order:
        if name in live:
            gate = kept[name]
            if owner:
                fanins = tuple([owner.get(f, f) for f in gate.fanins])
                if name in owner or fanins != gate.fanins:
                    gate = unchecked(owner.get(name, name), gate.gate_type, fanins)
            optimized._define_unchecked(gate)
    for output in circuit._outputs:
        optimized.set_output(output)
    optimized._topo_cache = list(optimized._order)
    return optimized
