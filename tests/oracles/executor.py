"""Reference oracle: the engine's three execution modes as a plain per-op loop.

The library runs a :class:`~repro.engine.program.CompiledProgram` only
through the C kernels (:mod:`repro.native`).  This module is what they are
held to: one NumPy row statement per op over the program's ``opcodes`` /
``a_slots`` / ``b_slots`` arrays — forward and bool in op order, backward in
reverse op order — with the same ``float32`` operations in the same order as
the C loop (a multiply and an add are never fused), so the results must be
equal bit for bit, not within a tolerance.

Only the op loops are re-implemented here.  Backward seeds the output-slot
gradients with the program's own :attr:`output_plan
<repro.engine.program.CompiledProgram.output_plan>`, as the executor does
before its C call: outputs that share a slot are summed by
``np.add.reduceat``, whose order for three or more terms is NumPy's, not a
left-to-right loop's.  The plan itself is pinned by
``tests/engine/test_compiler.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.program import OP_ADD, OP_MUL, CompiledProgram


def _slot_matrix(program: CompiledProgram, inputs: np.ndarray, dtype) -> np.ndarray:
    values = np.zeros((program.num_slots, inputs.shape[0]), dtype=dtype)
    if program.const1_slot >= 0:
        values[program.const1_slot] = 1
    for slot, column in enumerate(program.input_columns):
        values[slot] = inputs[:, column]
    return values


def forward_reference(program: CompiledProgram, probabilities) -> Tuple[np.ndarray, np.ndarray]:
    """``(outputs, values)``: the ``(batch, m)`` outputs and the slot matrix."""
    values = _slot_matrix(program, np.asarray(probabilities, dtype=np.float32), np.float32)
    base = program.first_op_slot
    for i, (opcode, a, b) in enumerate(zip(program.opcodes, program.a_slots, program.b_slots)):
        if opcode == OP_MUL:
            values[base + i] = values[a] * values[b]
        elif opcode == OP_ADD:
            values[base + i] = values[a] + values[b]
        else:  # OP_NOT
            values[base + i] = np.float32(1.0) - values[a]
    return values[program.output_slots].T.copy(), values


def backward_reference(program: CompiledProgram, values: np.ndarray, output_grads) -> np.ndarray:
    """``dL/dP`` of shape ``(batch, input_width)`` from the forward slot matrix."""
    output_grads = np.asarray(output_grads, dtype=np.float32)
    grads = np.zeros_like(values)
    program.output_plan.scatter(grads, output_grads.T)
    base = program.first_op_slot
    for i in range(program.num_ops - 1, -1, -1):
        opcode, a, b = program.opcodes[i], program.a_slots[i], program.b_slots[i]
        g = grads[base + i]
        if opcode == OP_MUL:
            grads[a] += g * values[b]
            grads[b] += g * values[a]
        elif opcode == OP_ADD:
            grads[a] += g
            grads[b] += g
        else:  # OP_NOT
            grads[a] -= g
    input_grads = np.zeros((values.shape[1], program.input_width), dtype=np.float32)
    for slot, column in enumerate(program.input_columns):
        input_grads[:, column] = grads[slot]
    return input_grads


def execute_bool_reference(program: CompiledProgram, input_matrix) -> np.ndarray:
    """The ``(num_slots, batch)`` boolean slot matrix."""
    values = _slot_matrix(program, np.asarray(input_matrix, dtype=np.bool_), np.bool_)
    base = program.first_op_slot
    for i, (opcode, a, b) in enumerate(zip(program.opcodes, program.a_slots, program.b_slots)):
        if opcode == OP_MUL:
            values[base + i] = values[a] & values[b]
        elif opcode == OP_ADD:
            values[base + i] = values[a] | values[b]
        else:  # OP_NOT
            values[base + i] = ~values[a]
    return values
