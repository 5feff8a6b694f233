"""Reference oracle: the block-based levelize step of the engine compiler.

Before the flat op stream, :func:`repro.engine.compile_circuit` sorted ops
with a Python key sort, resolved operands one op at a time and packaged each
``(level, opcode)`` run as an ``OpBlock`` of its own index arrays; the C tier
then flattened the blocks back into per-op arrays on first use.  This module
keeps that algorithm verbatim as the reference the vectorised levelize is
tested against.  It shares the gate lowering (:class:`_Lowering`,
:func:`_lower_gate`) with the library, which has a single implementation of
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.engine.compiler import _lower_gate, _Lowering
from repro.engine.program import OP_NOT


@dataclass(frozen=True)
class OpBlock:
    """A fused batch of same-opcode ops on one level."""

    opcode: int
    level: int
    out_start: int
    size: int
    a_slots: np.ndarray
    #: Empty for ``NOT`` blocks.
    b_slots: np.ndarray


@dataclass
class BlockProgram:
    """The parent compiler's output, reduced to what the flat program holds."""

    num_slots: int
    num_inputs: int
    cone_inputs: List[str]
    input_columns: np.ndarray
    const0_slot: int
    const1_slot: int
    blocks: List[OpBlock]
    output_slots: np.ndarray
    output_nets: List[str]

    def describe(self) -> Dict[str, int]:
        return {
            "slots": self.num_slots,
            "inputs": self.num_inputs,
            "outputs": len(self.output_nets),
            "ops": sum(block.size for block in self.blocks),
            "blocks": len(self.blocks),
            "levels": 0 if not self.blocks else self.blocks[-1].level,
        }

    def flatten(self):
        """``(opcodes, a_slots, b_slots, out_slots)`` — the old native layout."""
        num_ops = sum(block.size for block in self.blocks)
        opcodes = np.empty(num_ops, dtype=np.uint8)
        a_slots = np.empty(num_ops, dtype=np.int32)
        b_slots = np.zeros(num_ops, dtype=np.int32)
        out_slots = np.empty(num_ops, dtype=np.int32)
        position = 0
        for block in self.blocks:
            stop = position + block.size
            opcodes[position:stop] = block.opcode
            a_slots[position:stop] = block.a_slots
            if block.b_slots.size:
                b_slots[position:stop] = block.b_slots
            out_slots[position:stop] = np.arange(
                block.out_start, block.out_start + block.size, dtype=np.int32
            )
            position = stop
        return opcodes, a_slots, b_slots, out_slots


def compile_blocks(
    circuit: Circuit, output_nets: Sequence[str], input_order: Sequence[str]
) -> BlockProgram:
    """The parent ``compile_circuit``: per-op key sort, per-block packaging."""
    outputs = list(output_nets)
    column_of = {name: i for i, name in enumerate(input_order)}
    cone = circuit.transitive_fanin(outputs)
    schedule = [name for name in circuit.topological_order() if name in cone]
    cone_inputs = [name for name in circuit.inputs if name in cone]
    num_inputs = len(cone_inputs)
    input_slot = {name: i for i, name in enumerate(cone_inputs)}
    has_const0 = any(circuit.gate(n).gate_type == GateType.CONST0 for n in schedule)
    has_const1 = any(circuit.gate(n).gate_type == GateType.CONST1 for n in schedule)
    const0_slot = num_inputs if has_const0 else -1
    const1_slot = num_inputs + int(has_const0) if has_const1 else -1
    num_base_slots = num_inputs + int(has_const0) + int(has_const1)

    lowering = _Lowering(num_base_slots)
    net_ref: Dict[str, int] = {}
    for name in schedule:
        gate = circuit.gate(name)
        if gate.gate_type == GateType.INPUT:
            net_ref[name] = input_slot[name]
        elif gate.gate_type == GateType.CONST0:
            net_ref[name] = const0_slot
        elif gate.gate_type == GateType.CONST1:
            net_ref[name] = const1_slot
        elif gate.gate_type == GateType.BUF:
            net_ref[name] = net_ref[gate.fanins[0]]
        else:
            fanin_refs = [net_ref[f] for f in gate.fanins]
            net_ref[name] = _lower_gate(lowering, gate.gate_type, fanin_refs)

    num_ops = len(lowering.opcodes)
    op_positions = sorted(
        range(num_ops), key=lambda i: (lowering.levels[i], lowering.opcodes[i])
    )
    op_slot = np.empty(num_ops, dtype=np.int64)
    for position, op_id in enumerate(op_positions):
        op_slot[op_id] = num_base_slots + position

    def resolve(ref: int) -> int:
        return ref if ref >= 0 else int(op_slot[~ref])

    blocks: List[OpBlock] = []
    position = 0
    while position < num_ops:
        op_id = op_positions[position]
        level = lowering.levels[op_id]
        opcode = lowering.opcodes[op_id]
        group = [op_id]
        position += 1
        while position < num_ops:
            nxt = op_positions[position]
            if lowering.levels[nxt] != level or lowering.opcodes[nxt] != opcode:
                break
            group.append(nxt)
            position += 1
        a_slots = np.fromiter(
            (resolve(lowering.a_ops[i]) for i in group), dtype=np.int32, count=len(group)
        )
        if opcode == OP_NOT:
            b_slots = np.zeros(0, dtype=np.int32)
        else:
            b_slots = np.fromiter(
                (resolve(lowering.b_ops[i]) for i in group),
                dtype=np.int32,
                count=len(group),
            )
        blocks.append(
            OpBlock(
                opcode=opcode,
                level=level,
                out_start=int(op_slot[group[0]]),
                size=len(group),
                a_slots=a_slots,
                b_slots=b_slots,
            )
        )

    return BlockProgram(
        num_slots=num_base_slots + num_ops,
        num_inputs=num_inputs,
        cone_inputs=cone_inputs,
        input_columns=np.fromiter(
            (column_of[name] for name in cone_inputs), dtype=np.int32, count=num_inputs
        ),
        const0_slot=const0_slot,
        const1_slot=const1_slot,
        blocks=blocks,
        output_slots=np.fromiter(
            (resolve(net_ref[name]) for name in outputs), dtype=np.int32, count=len(outputs)
        ),
        output_nets=outputs,
    )
