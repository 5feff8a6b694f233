"""Compile a circuit cone into a :class:`CompiledProgram`.

Compilation happens once per (circuit, outputs, input order) triple; the
resulting program is a pure-array artifact that the executor can run forever
after without touching the netlist, its dicts, or its string keys again.

The circuit's gate table is lowered once, every gate in topological order,
and memoised beside its programs; each program is a slice of that lowering.
Lowering rules (chosen to reproduce the gate-by-gate Table I relaxation
*bitwise* — each rule mirrors the operation chain of the per-gate reference
oracle kept under ``tests/oracles/``):

* ``INPUT`` — a base slot loaded from the caller's input matrix;
* ``CONST0`` / ``CONST1`` — shared constant slots filled at execution time;
* ``BUF`` — aliased away (the net shares its fanin's value);
* ``NOT`` — one ``NOT`` op;
* ``AND`` — left-to-right ``MUL`` chain;
* ``NAND`` — the ``AND`` chain followed by ``NOT``;
* ``OR`` — complement-product chain ``NOT``/``MUL`` + final ``NOT``;
* ``NOR`` — the full ``OR`` lowering followed by ``NOT``;
* ``XOR`` — pairwise chain ``r <- r(1-x) + (1-r)x`` (two ``MUL`` on fresh
  ``NOT`` results, one ``ADD``);
* ``XNOR`` — the ``XOR`` chain followed by ``NOT``.

An op's level is its longest distance from a source row, which depends
only on its own operands, so the ops of a cone keep the levels and the
relative emission order they would have in a lowering of the cone alone.
:func:`compile_circuit` takes the ops of the gates in its cone, maps the
cone's source rows to base slots (its inputs in declaration order, then one
shared ``CONST0`` and one ``CONST1`` slot), and numbers the ops in one
vectorised step: a stable ``lexsort`` on ``(level, opcode)`` renumbers every
op into its output slot, and operand references resolve through two index
arrays.  A round's learn and fill programs therefore lower the gates they
share once, not twice.

The C kernels would run emission order just as well — every op already
follows its operands there.  The sort stays because it fixes the program's
slot numbering and the reverse op order in which the C backward pass
accumulates operand gradients: float32 addition is not associative, so
another order would move the learned bits, and with them every fixed-seed
solution stream.

:func:`compiled_program_for` adds a per-circuit memo so repeated executions
(every sampling round re-simulates the same recovered circuit) compile once.
The memo, the lowering included, lives on the
:class:`~repro.circuit.netlist.Circuit` instance and is cleared whenever a
net is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.weakcache import OwnerRegistry

from repro.circuit.gates import GATE_CODES, GateType
from repro.circuit.netlist import Circuit
from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram

_CONST0, _CONST1, _BUF, _NOT = (
    GATE_CODES[t] for t in (GateType.CONST0, GateType.CONST1, GateType.BUF, GateType.NOT)
)
_AND_CODES = frozenset((GATE_CODES[GateType.AND], GATE_CODES[GateType.NAND]))
_OR_CODES = frozenset((GATE_CODES[GateType.OR], GATE_CODES[GateType.NOR]))
_INVERTED_CODES = frozenset(
    GATE_CODES[t] for t in (GateType.NAND, GateType.NOR, GateType.XNOR)
)
#: The engine-cache key the circuit's lowering is memoised under.
_LOWERING = "lowering"


class CompileError(ValueError):
    """Raised when a circuit cone cannot be lowered (unknown nets, missing inputs)."""


@dataclass(frozen=True)
class _Lowered:
    """Every gate of a circuit lowered to primitive ops once, in topological order.

    An operand reference is an op id (``>= 0``) or ``~row`` of the source
    row (``INPUT``/``CONST0``/``CONST1``) it reads; each program maps those
    rows to its own base slots.
    """

    opcodes: np.ndarray  # uint8 per op
    levels: np.ndarray  # int32 per op: longest distance from a source
    a_refs: np.ndarray  # int32 per op
    b_refs: np.ndarray  # int32 per op (0 for NOT)
    owners: np.ndarray  # int32 per op: the row whose gate emitted it
    net_refs: np.ndarray  # int32 per row: the reference of its value
    types: np.ndarray  # uint8 per row


def _lower(circuit: Circuit) -> _Lowered:
    """Emit the op chain of every gate (see the lowering rules above)."""
    types, fanins_of = circuit._types, circuit._fanins
    opcodes: List[int] = []
    a_refs: List[int] = []
    b_refs: List[int] = []
    levels: List[int] = []
    owners: List[int] = []
    net_refs = [0] * len(types)

    def emit(opcode: int, a: int, b: int = 0) -> int:
        level = levels[a] + 1 if a >= 0 else 1
        if opcode != OP_NOT:
            other = levels[b] + 1 if b >= 0 else 1
            if other > level:
                level = other
        opcodes.append(opcode)
        a_refs.append(a)
        b_refs.append(b)
        levels.append(level)
        return len(opcodes) - 1

    for row in circuit._topological():
        code = types[row]
        if code <= _CONST1:
            net_refs[row] = ~row
            continue
        fanins = [net_refs[f] for f in fanins_of[row]]
        if code == _BUF:
            net_refs[row] = fanins[0]
            continue
        first = len(opcodes)
        if code == _NOT:
            result = emit(OP_NOT, fanins[0])
        elif code in _AND_CODES:
            result = fanins[0]
            for operand in fanins[1:]:
                result = emit(OP_MUL, result, operand)
        elif code in _OR_CODES:
            complement = emit(OP_NOT, fanins[0])
            for operand in fanins[1:]:
                complement = emit(OP_MUL, complement, emit(OP_NOT, operand))
            result = emit(OP_NOT, complement)
        else:  # XOR / XNOR: r <- r(1-x) + (1-r)x
            result = fanins[0]
            for operand in fanins[1:]:
                left = emit(OP_MUL, result, emit(OP_NOT, operand))
                right = emit(OP_MUL, emit(OP_NOT, result), operand)
                result = emit(OP_ADD, left, right)
        if code in _INVERTED_CODES:
            result = emit(OP_NOT, result)
        net_refs[row] = result
        owners.extend([row] * (len(opcodes) - first))

    return _Lowered(
        opcodes=np.array(opcodes, dtype=np.uint8),
        levels=np.array(levels, dtype=np.int32),
        a_refs=np.array(a_refs, dtype=np.int32),
        b_refs=np.array(b_refs, dtype=np.int32),
        owners=np.array(owners, dtype=np.int32),
        net_refs=np.array(net_refs, dtype=np.int32),
        types=circuit.types,
    )


def _lowered(circuit: Circuit) -> _Lowered:
    """The circuit's lowering, memoised beside its programs."""
    cache = circuit.engine_cache()
    lowered = cache.get(_LOWERING)
    if lowered is None:
        lowered = cache[_LOWERING] = _lower(circuit)
        _CACHE_OWNERS.register(circuit)
    return lowered


def compile_circuit(
    circuit: Circuit,
    output_nets: Sequence[str],
    input_order: Optional[Sequence[str]] = None,
) -> CompiledProgram:
    """Lower the cone of ``output_nets`` into a program.

    ``input_order`` gives the column layout of the input matrix the program
    will read (defaults to ``circuit.inputs``); it must cover every primary
    input inside the cone but may be wider (extra columns are ignored on the
    forward pass and receive zero gradient on the backward pass, exactly like
    the per-gate reference).
    """
    outputs = list(output_nets)
    if not outputs:
        raise CompileError("compile_circuit needs at least one output net")
    index = circuit._index
    output_rows = []
    for name in outputs:
        row = index.get(name)
        if row is None:
            raise CompileError(f"unknown output net {name!r}")
        output_rows.append(row)
    order_names = list(input_order) if input_order is not None else list(circuit.inputs)
    column_of = {name: i for i, name in enumerate(order_names)}

    cone = circuit._cone(output_rows)
    names = circuit._names
    cone_input_rows = [row for row in circuit._inputs if cone[row]]
    cone_inputs = [names[row] for row in cone_input_rows]
    missing = [name for name in cone_inputs if name not in column_of]
    if missing:
        raise CompileError(
            f"input_order is missing constrained inputs: {sorted(missing)}"
        )
    num_inputs = len(cone_inputs)

    lowered = _lowered(circuit)
    in_cone = np.frombuffer(bytes(cone), dtype=np.bool_)
    types = lowered.types
    const0 = types == _CONST0
    const1 = types == _CONST1
    has_const0 = bool(np.any(const0 & in_cone))
    has_const1 = bool(np.any(const1 & in_cone))
    const0_slot = num_inputs if has_const0 else -1
    const1_slot = num_inputs + int(has_const0) if has_const1 else -1
    num_base_slots = num_inputs + int(has_const0) + int(has_const1)
    base_slot = np.zeros(types.size, dtype=np.int64)  # source row -> base slot
    base_slot[cone_input_rows] = np.arange(num_inputs)
    base_slot[const0] = const0_slot
    base_slot[const1] = const1_slot

    # -- the cone's ops, in emission order; stable sort by (level, opcode),
    # renumber into slots (see the module docstring for why the sort stays) -----------
    ops = np.flatnonzero(in_cone[lowered.owners])
    ops = ops[np.lexsort((lowered.opcodes[ops], lowered.levels[ops]))]
    opcodes = lowered.opcodes[ops]
    num_ops = ops.shape[0]
    op_slot = np.zeros(lowered.opcodes.shape[0], dtype=np.int64)
    op_slot[ops] = np.arange(num_base_slots, num_base_slots + num_ops)

    def resolve(refs: np.ndarray) -> np.ndarray:
        slots = np.empty(refs.shape[0], dtype=np.int32)
        is_op = refs >= 0
        slots[is_op] = op_slot[refs[is_op]]
        slots[~is_op] = base_slot[~refs[~is_op]]
        return slots

    b_slots = resolve(lowered.b_refs[ops])
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
        a_slots=resolve(lowered.a_refs[ops]),
        b_slots=b_slots,
        output_slots=resolve(lowered.net_refs[output_rows]),
        output_nets=outputs,
    )


def compiled_program_for(
    circuit: Circuit,
    output_nets: Sequence[str],
    input_order: Optional[Sequence[str]] = None,
) -> CompiledProgram:
    """Memoized :func:`compile_circuit` — one program per cone per netlist state.

    The memo is stored on the circuit and cleared by the netlist whenever a
    net is added, so callers can hold a circuit and extend it between
    executions without ever seeing a stale program.
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
    invalidation — adding a net clears it, adopted entries included.
    """
    circuit.engine_cache()[key] = program
    _CACHE_OWNERS.register(circuit)


#: Circuits holding at least one memoised program.
_CACHE_OWNERS = OwnerRegistry()


def clear_program_caches() -> None:
    """Drop every memoised compiled program in the process.

    Complements the automatic invalidation when a net is added: long-lived
    processes (servers, notebook sessions) can release compiled state or
    force a recompile without touching the netlists.  Exposed to users as
    :func:`repro.clear_caches`.
    """
    _CACHE_OWNERS.clear(lambda circuit: circuit.engine_cache().clear())
