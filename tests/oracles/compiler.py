"""Reference oracles: the per-gate lowering and the block-based levelize step
of the engine compiler.

Before the netlist became a gate table, :func:`repro.engine.compile_circuit`
walked the cone of each program by net name and emitted every gate's op
chain through :class:`_Lowering` / :func:`_lower_gate`, once per program, so
the gates a round's learn and fill programs share were lowered twice.
:func:`compile_circuit_reference` keeps that compiler verbatim; the library
now lowers a circuit once and cuts each program from that lowering.

Before the flat op stream, the compiler sorted ops with a Python key sort,
resolved operands one op at a time and packaged each ``(level, opcode)`` run
as an ``OpBlock`` of its own index arrays; the C tier then flattened the
blocks back into per-op arrays on first use.  :func:`compile_blocks` keeps
that algorithm verbatim as the reference the vectorised levelize is tested
against: the library's op arrays must equal :meth:`BlockProgram.flatten`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.engine.compiler import CompileError
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram


class _Lowering:
    """Mutable state while emitting primitive ops for one cone."""

    def __init__(self, num_base_slots: int) -> None:
        self.num_base_slots = num_base_slots
        # Parallel per-op arrays indexed by temporary op id.
        self.opcodes: List[int] = []
        self.a_ops: List[int] = []  # operand slot (base) or ~op_id (temp)
        self.b_ops: List[int] = []
        self.levels: List[int] = []
        self.base_levels: Dict[int, int] = {}

    def _operand_level(self, ref: int) -> int:
        return 0 if ref >= 0 else self.levels[~ref]

    def emit(self, opcode: int, a: int, b: int = 0) -> int:
        """Emit one op; operands are base-slot ids (>= 0) or ``~op_id`` refs."""
        level = 1 + self._operand_level(a)
        if opcode != OP_NOT:
            level = max(level, 1 + self._operand_level(b))
        self.opcodes.append(opcode)
        self.a_ops.append(a)
        self.b_ops.append(b)
        self.levels.append(level)
        return ~(len(self.opcodes) - 1)  # negative refs denote op outputs

    def emit_not(self, a: int) -> int:
        """Emit ``1 - a``."""
        return self.emit(OP_NOT, a)

    def emit_mul(self, a: int, b: int) -> int:
        """Emit ``a * b``."""
        return self.emit(OP_MUL, a, b)

    def emit_add(self, a: int, b: int) -> int:
        """Emit ``a + b``."""
        return self.emit(OP_ADD, a, b)


def _lower_gate(lowering: _Lowering, gate_type: GateType, fanins: List[int]) -> int:
    """Emit the primitive-op chain for one logic gate; returns its value ref."""
    if gate_type == GateType.NOT:
        return lowering.emit_not(fanins[0])
    if gate_type in (GateType.AND, GateType.NAND):
        result = fanins[0]
        for operand in fanins[1:]:
            result = lowering.emit_mul(result, operand)
        if gate_type == GateType.NAND:
            result = lowering.emit_not(result)
        return result
    if gate_type in (GateType.OR, GateType.NOR):
        complement = lowering.emit_not(fanins[0])
        for operand in fanins[1:]:
            complement = lowering.emit_mul(complement, lowering.emit_not(operand))
        result = lowering.emit_not(complement)
        if gate_type == GateType.NOR:
            result = lowering.emit_not(result)
        return result
    if gate_type in (GateType.XOR, GateType.XNOR):
        result = fanins[0]
        for operand in fanins[1:]:
            left = lowering.emit_mul(result, lowering.emit_not(operand))
            right = lowering.emit_mul(lowering.emit_not(result), operand)
            result = lowering.emit_add(left, right)
        if gate_type == GateType.XNOR:
            result = lowering.emit_not(result)
        return result
    raise CompileError(f"unsupported gate type {gate_type}")


def compile_circuit_reference(
    circuit: Circuit,
    output_nets: Sequence[str],
    input_order: Optional[Sequence[str]] = None,
) -> CompiledProgram:
    """The per-gate compiler: the cone of ``output_nets`` lowered gate by gate.

    ``input_order`` gives the column layout of the input matrix the program
    will read (defaults to ``circuit.inputs``); it must cover every primary
    input inside the cone but may be wider (extra columns are ignored on the
    forward pass and receive zero gradient on the backward pass, exactly like
    the per-gate reference).
    """
    outputs = list(output_nets)
    if not outputs:
        raise CompileError("compile_circuit needs at least one output net")
    for name in outputs:
        if not circuit.has_net(name):
            raise CompileError(f"unknown output net {name!r}")
    order_names = list(input_order) if input_order is not None else list(circuit.inputs)
    column_of = {name: i for i, name in enumerate(order_names)}

    cone = circuit.transitive_fanin(outputs)
    schedule = [name for name in circuit.topological_order() if name in cone]

    cone_inputs = [name for name in circuit.inputs if name in cone]
    missing = [name for name in cone_inputs if name not in column_of]
    if missing:
        raise CompileError(
            f"input_order is missing constrained inputs: {sorted(missing)}"
        )
    num_inputs = len(cone_inputs)
    input_slot = {name: i for i, name in enumerate(cone_inputs)}

    has_const0 = any(
        circuit.gate(name).gate_type == GateType.CONST0 for name in schedule
    )
    has_const1 = any(
        circuit.gate(name).gate_type == GateType.CONST1 for name in schedule
    )
    const0_slot = num_inputs if has_const0 else -1
    const1_slot = num_inputs + int(has_const0) if has_const1 else -1
    num_base_slots = num_inputs + int(has_const0) + int(has_const1)

    lowering = _Lowering(num_base_slots)
    net_ref: Dict[str, int] = {}  # net -> base slot (>= 0) or ~op_id
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

    # -- levelize: stable sort ops by (level, opcode), renumber into slots ----------
    levels = np.asarray(lowering.levels, dtype=np.int32)
    opcodes = np.asarray(lowering.opcodes, dtype=np.uint8)
    order = np.lexsort((opcodes, levels))
    num_ops = order.shape[0]
    op_slot = np.empty(num_ops, dtype=np.int64)
    op_slot[order] = np.arange(num_base_slots, num_base_slots + num_ops)

    def resolve(refs) -> np.ndarray:
        # Base slots are >= 0; op outputs are ~op_id references.
        slots = np.asarray(refs, dtype=np.int64)
        temp = slots < 0
        slots[temp] = op_slot[~slots[temp]]
        return slots.astype(np.int32)

    opcodes = opcodes[order]
    b_slots = resolve(lowering.b_ops)[order]
    b_slots[opcodes == OP_NOT] = 0
    return CompiledProgram(
        source_name=circuit.name,
        num_slots=num_base_slots + num_ops,
        num_inputs=num_inputs,
        cone_inputs=cone_inputs,
        input_columns=np.fromiter(
            (column_of[name] for name in cone_inputs), dtype=np.int32, count=num_inputs
        ),
        input_width=len(order_names),
        const0_slot=const0_slot,
        const1_slot=const1_slot,
        opcodes=opcodes,
        a_slots=resolve(lowering.a_ops)[order],
        b_slots=b_slots,
        output_slots=resolve([net_ref[name] for name in outputs]),
        output_nets=outputs,
    )


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
