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
measures.  The walk reads the netlist's integer gate table, and its result
is a new table.  The same pass over named gate records is the reference in
``tests/oracles/circuit.py``, and the separate passes iterated to a fixed
point are the reference in ``tests/oracles/optimize.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.gates import GATE_CODES, GATE_TYPES, GateType
from repro.circuit.netlist import Circuit

#: (gate type code, canonically ordered fanin rows) key used for structural hashing.
_StrashKey = Tuple[int, Tuple[int, ...]]

_INPUT, _CONST0, _CONST1, _BUF = (
    GATE_CODES[t] for t in (GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.BUF)
)

_COMMUTATIVE = {
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
}
_COMMUTATIVE_CODES = frozenset(GATE_CODES[gate_type] for gate_type in _COMMUTATIVE)


def _fold_gate(
    gate_type: GateType, fanins: Tuple, fanin_consts: Sequence[Optional[bool]]
) -> Tuple[GateType, Tuple, Optional[bool]]:
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


def optimize_circuit(circuit: Circuit) -> Circuit:
    """Fold constants, collapse buffers, hash and sweep in one topological pass.

    Returns a new circuit with the same primary inputs (in declaration order)
    and outputs.  Every output keeps its name.  Of structurally identical
    nets, the first in topological order is kept; if it is not an output, the
    first output among its duplicates takes it over (the kept net is renamed),
    so the consumers of both end up reading one net.  Later duplicates that
    are outputs become buffers of it, and an output whose value folds
    becomes a constant.  The gates are emitted in topological order and that
    order is installed as the result's
    :meth:`~repro.circuit.netlist.Circuit.topological_order`, so compiling the
    result does not sort it again.  The pass is idempotent: optimizing the
    result returns the same gate list.

    The walk reads the integer gate table: a structural-hashing key is the
    gate type code plus its resolved fanin rows, sorted for commutative
    types, which makes the same gates equal as sorting fanin names would.
    """
    types, fanins_of = circuit._types, circuit._fanins
    output_set = circuit._output_set
    count = len(types)
    alias = list(range(count))  # row -> the row that replaces it (itself if kept)
    constant: List[Optional[bool]] = [None] * count  # constant-valued row -> its value
    has_constant = False
    canonical: Dict[_StrashKey, int] = {}
    owner: Dict[int, int] = {}  # kept non-output row -> the output taking it over
    kept_types = bytearray(count)
    kept: List[Optional[Tuple[int, ...]]] = [None] * count  # kept row -> its fanins
    order: List[int] = []

    for row in circuit._topological():
        code = types[row]
        if code == _INPUT:
            continue
        if code <= _CONST1:
            constant[row] = code == _CONST1
            has_constant = True
            kept_types[row], kept[row] = code, ()
            order.append(row)
            continue
        fanins = tuple([alias[f] for f in fanins_of[row]])
        if has_constant:
            fanin_consts = [constant[f] for f in fanins]
            if fanin_consts.count(None) < len(fanin_consts):
                gate_type, fanins, value = _fold_gate(GATE_TYPES[code], fanins, fanin_consts)
                code = GATE_CODES[gate_type]
                if value is not None:
                    # Swept below unless it is an output: every consumer folds it.
                    constant[row] = value
                    kept_types[row], kept[row] = _CONST1 if value else _CONST0, ()
                    order.append(row)
                    continue
        is_output = row in output_set
        if code == _BUF and not is_output:
            alias[row] = fanins[0]
            continue
        key = (code, tuple(sorted(fanins))) if code in _COMMUTATIVE_CODES else (code, fanins)
        existing = canonical.get(key)
        if existing is not None:
            if not is_output:
                alias[row] = existing
                continue
            if existing not in output_set and existing not in owner:
                # The first output duplicating a non-output net takes it
                # over: the kept gate is emitted under the output's name.
                owner[existing] = row
                alias[row] = existing
                continue
            # Any other output becomes the last buffer of the chain behind
            # ``existing`` (no two buffers share a fanin).
            key = (_BUF, (existing,))
            while key in canonical:
                key = (_BUF, (canonical[key],))
            code, fanins = key
        canonical[key] = row
        kept_types[row], kept[row] = code, fanins
        order.append(row)
    del canonical, constant  # not needed for the table below

    live = bytearray(count)
    stack = [alias[output] for output in circuit._outputs]
    while stack:
        row = stack.pop()
        if not live[row]:
            live[row] = 1
            fanins = kept[row]  # None for a primary input
            if fanins:
                stack.extend(fanins)

    old_names = circuit._names
    names = [old_names[row] for row in circuit._inputs]
    new_row = [0] * count
    for position, row in enumerate(circuit._inputs):
        new_row[row] = position
    table_types = bytearray(len(names))  # _INPUT is code 0
    table_fanins: List[Tuple[int, ...]] = [()] * len(names)
    for row in order:
        if live[row]:
            new_row[row] = len(names)
            names.append(old_names[owner.get(row, row)])
            table_types.append(kept_types[row])
            table_fanins.append(tuple([new_row[f] for f in kept[row]]))
    # Every output is a kept row, or the alias of the kept row it took over.
    outputs = [new_row[alias[output]] for output in circuit._outputs]
    return Circuit._from_rows(circuit.name, names, table_types, table_fanins, outputs, True)
