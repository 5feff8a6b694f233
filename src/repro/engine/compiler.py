"""Compile a circuit cone into a levelized :class:`CompiledProgram`.

Compilation happens once per (circuit, outputs, input order) triple; the
resulting program is a pure-array artifact that the executor can run forever
after without touching the netlist, its dicts, or its string keys again.

Lowering rules (chosen to reproduce the gate-by-gate Table I relaxation
*bitwise* — each rule mirrors the operation chain of the per-gate reference
oracle kept under ``tests/oracles/``):

* ``INPUT`` — a base slot loaded from the caller's input matrix;
* ``CONST0`` / ``CONST1`` — shared constant slots filled at execution time;
* ``BUF`` — aliased away (the net shares its fanin's slot);
* ``NOT`` — one ``NOT`` op;
* ``AND`` — left-to-right ``MUL`` chain;
* ``NAND`` — the ``AND`` chain followed by ``NOT``;
* ``OR`` — complement-product chain ``NOT``/``MUL`` + final ``NOT``;
* ``NOR`` — the full ``OR`` lowering followed by ``NOT``;
* ``XOR`` — pairwise chain ``r <- r(1-x) + (1-r)x`` (two ``MUL`` on fresh
  ``NOT`` results, one ``ADD``);
* ``XNOR`` — the ``XOR`` chain followed by ``NOT``.

After lowering, ops are assigned levels (longest distance from a source
slot) and levelized in one vectorised step: a stable ``lexsort`` on
``(level, opcode)`` renumbers every op into its output slot, operand
references resolve through one index array, and the ``(level, opcode)``
runs of the sorted stream become the block table (see
:mod:`repro.engine.program`).

:func:`compiled_program_for` adds a per-circuit memo so repeated executions
(every sampling round re-simulates the same recovered circuit) compile once.
The cache lives on the :class:`~repro.circuit.netlist.Circuit` instance and
is invalidated whenever the netlist is mutated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.weakcache import OwnerRegistry

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram


class CompileError(ValueError):
    """Raised when a circuit cone cannot be lowered (unknown nets, missing inputs)."""


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


def compile_circuit(
    circuit: Circuit,
    output_nets: Sequence[str],
    input_order: Optional[Sequence[str]] = None,
) -> CompiledProgram:
    """Lower the cone of ``output_nets`` into a levelized program.

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

    levels, opcodes = levels[order], opcodes[order]
    # A new block starts wherever the (level, opcode) key changes.
    starts = np.flatnonzero((levels[1:] != levels[:-1]) | (opcodes[1:] != opcodes[:-1]))
    block_bounds = np.zeros(1, dtype=np.int64)
    if num_ops:
        block_bounds = np.concatenate(([0], starts + 1, [num_ops])).astype(np.int64)
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
        block_bounds=block_bounds,
        block_levels=levels[block_bounds[:-1]],
        output_slots=resolve([net_ref[name] for name in outputs]),
        output_nets=outputs,
    )


def compiled_program_for(
    circuit: Circuit,
    output_nets: Sequence[str],
    input_order: Optional[Sequence[str]] = None,
) -> CompiledProgram:
    """Memoized :func:`compile_circuit` — one program per cone per netlist state.

    The memo is stored on the circuit and cleared by the netlist whenever a
    gate is added or replaced, so callers can hold a circuit and mutate it
    between executions without ever seeing a stale program.
    """
    cache = circuit.engine_cache()
    key = (
        tuple(output_nets),
        tuple(input_order) if input_order is not None else None,
    )
    program = cache.get(key)
    if program is None:
        program = compile_circuit(circuit, output_nets, input_order)
        cache[key] = program
        _CACHE_OWNERS.register(circuit)
    return program


#: Memo key of one compiled program: ``(output nets, explicit input order)``.
ProgramKey = Tuple[Tuple[str, ...], Optional[Tuple[str, ...]]]


def program_key(
    output_nets: Sequence[str], input_order: Optional[Sequence[str]] = None
) -> ProgramKey:
    """The memo key :func:`compiled_program_for` files a cone under."""
    return (
        tuple(output_nets),
        tuple(input_order) if input_order is not None else None,
    )


def adopt_program(circuit: Circuit, key: ProgramKey, program: CompiledProgram) -> None:
    """Install an externally obtained program into ``circuit``'s memo.

    Used to re-attach a store-loaded round plan's programs to the circuit
    decoded after it (:meth:`TransformResult.adopt_programs`): a subsequent
    :func:`compiled_program_for` with the same cone becomes a pure cache hit
    instead of a recompile.  The memo participates in the usual
    invalidation — any netlist mutation clears it, adopted entries included.
    """
    circuit.engine_cache()[key] = program
    _CACHE_OWNERS.register(circuit)


def cached_programs(circuit: Circuit) -> List[CompiledProgram]:
    """The programs currently memoised on ``circuit`` (no compilation).

    This is the read-only cache handle services use to account for compiled
    state they keep alive — e.g. :mod:`repro.serve.cache` sums
    :attr:`CompiledProgram.nbytes <repro.engine.program.CompiledProgram.nbytes>`
    over it for the byte-bounded artifact cache.
    """
    return list(circuit.engine_cache().values())


#: Circuits holding at least one memoised program.
_CACHE_OWNERS = OwnerRegistry()


def clear_program_caches() -> None:
    """Drop every memoised compiled program in the process.

    Complements the automatic mutation-driven invalidation: long-lived
    processes (servers, notebook sessions) can release compiled state or
    force a recompile without touching the netlists.  Exposed to users as
    :func:`repro.clear_caches`.
    """
    _CACHE_OWNERS.clear(lambda circuit: circuit.engine_cache().clear())
