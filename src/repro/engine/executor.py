"""Execute a :class:`CompiledProgram`: fused forward, backward and bool modes.

The value state of one execution is a dense ``(num_slots, batch)`` matrix —
slot-major so that every fused block writes a *contiguous* row range with one
fused array statement.  Two execution modes share the one program:

* :func:`forward` / :func:`backward` — the probabilistic relaxation in
  ``float32`` with a hand-written reverse pass.  The closed-form
  adjoints of the three primitive ops are all the engine needs (Table I's
  derivatives compose out of them): ``MUL`` routes ``g*b`` / ``g*a``, ``ADD``
  routes ``g`` twice and ``NOT`` routes ``-g``.  No autodiff tape, no
  per-gate Python objects.
* :func:`execute_bool` — the same program over boolean arrays
  (``MUL = &``, ``ADD = |``, ``NOT = ~``); backs circuit simulation and the
  round's defined-variable fill.

The float modes cast their input to ``float32``, the one dtype of the
learning arrays; the ``float64`` reference is the per-gate oracle under
``tests/oracles/``.  When the native C tier is available
(:mod:`repro.native`), every mode runs the program's op stream there instead
of the per-block array statements.

``ADD`` appearing only in XOR chains (disjoint operands) is what makes the
``|`` / bitwise interpretations exact — see :mod:`repro.engine.program`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram


def float_array(data) -> np.ndarray:
    """``data`` as a ``float32`` NumPy array (``data`` itself when it is one)."""
    return np.asarray(data, dtype=np.float32)


def _native_kernels():
    """The native kernel set to engage for an execution, or ``None``.

    Native execution engages exactly when the C tier builds (and
    ``REPRO_NATIVE`` is not ``off``; see :mod:`repro.native`).
    """
    from repro import native

    return native.kernels_for(None)


class ForwardCache:
    """Forward-pass state kept alive for the reverse pass.

    Holds the full slot matrix plus the per-block operand gathers the forward
    pass materialised anyway — the backward pass reuses them instead of
    re-gathering, which removes two fancy-index copies per ``MUL`` block.
    """

    __slots__ = ("values", "operands")

    def __init__(self, values, operands: List[Optional[Tuple]]) -> None:
        self.values = values
        self.operands = operands


class NativeForwardCache:
    """Forward state of a native-kernel execution (no per-block gathers).

    The native forward runs in place over the slot matrix, so the reverse
    pass needs only the matrix itself plus the kernel set that produced it —
    :func:`backward` dispatches on the cache type.
    """

    __slots__ = ("values", "kernels")

    def __init__(self, values, kernels) -> None:
        self.values = values
        self.kernels = kernels


def _base_values(program: CompiledProgram, batch: int, dtype, zero, one):
    """Allocate the slot matrix and fill the base (input/constant) rows."""
    values = np.empty((program.num_slots, batch), dtype=dtype)
    if program.const0_slot >= 0:
        values[program.const0_slot] = zero
    if program.const1_slot >= 0:
        values[program.const1_slot] = one
    return values


def forward(program: CompiledProgram, probabilities) -> Tuple[object, ForwardCache]:
    """Run the probabilistic forward pass on a ``(batch, input_width)`` matrix.

    Returns ``(outputs, cache)`` where ``outputs`` is the ``(batch, m)``
    output-probability matrix and ``cache`` the forward state the caller
    keeps alive if it intends to run :func:`backward`.  Runs in ``float32``.
    """
    probabilities = float_array(probabilities)
    if probabilities.ndim != 2 or probabilities.shape[1] != program.input_width:
        raise ValueError(
            f"expected probabilities of shape (batch, {program.input_width}), "
            f"got {tuple(probabilities.shape)}"
        )
    batch = probabilities.shape[0]
    values = _base_values(program, batch, np.float32, 0.0, 1.0)
    if program.num_inputs:
        values[: program.num_inputs] = probabilities.T[program.input_columns]
    kernels = _native_kernels()
    if kernels is not None:
        # One C pass over the flat op stream; elementwise per op, so
        # bitwise identical to the fused block path below.
        kernels.engine_forward(program, values)
        outputs = values[program.output_slots].T.copy()
        return outputs, NativeForwardCache(values, kernels)
    operands: List[Optional[Tuple]] = []
    for opcode, out_start, out_stop, a_slots, b_slots in program.blocks:
        out = values[out_start:out_stop]
        a = values[a_slots]
        if opcode == OP_MUL:
            b = values[b_slots]
            np.multiply(a, b, out=out)
            operands.append((a, b))  # reused by the MUL adjoint
        elif opcode == OP_ADD:
            np.add(a, values[b_slots], out=out)
            operands.append(None)
        else:  # OP_NOT
            np.subtract(1.0, a, out=out)
            operands.append(None)
    outputs = values[program.output_slots].T.copy()
    return outputs, ForwardCache(values, operands)


def backward(
    program: CompiledProgram,
    cache: ForwardCache,
    output_grads,
) -> object:
    """Reverse pass: map ``dL/dY`` to ``dL/dP`` using the forward cache.

    ``output_grads`` is ``(batch, m)`` like the forward outputs; the result
    has the caller's input-matrix shape ``(batch, input_width)`` with zeros in
    columns outside the cone (the per-gate reference's scatter semantics).
    Runs in ``float32``, like the forward pass that produced ``cache``.
    """
    values = cache.values
    output_grads = float_array(output_grads)
    batch = values.shape[1]
    if tuple(output_grads.shape) != (batch, len(program.output_nets)):
        raise ValueError(
            f"expected output grads of shape ({batch}, {len(program.output_nets)}), "
            f"got {tuple(output_grads.shape)}"
        )
    grads = np.zeros_like(values)
    program.output_plan.scatter(grads, output_grads.T)
    if isinstance(cache, NativeForwardCache):
        # Sequential per-op reverse accumulation; matches the block path up
        # to accumulation order (NumPy's scatter reductions use
        # platform-dependent accumulation orders).
        cache.kernels.engine_backward(program, values, grads)
        input_grads = np.zeros((batch, program.input_width), dtype=np.float32)
        if program.num_inputs:
            input_grads[:, program.input_columns] = grads[: program.num_inputs].T
        return input_grads
    blocks, plans = program.blocks, program.scatter_plans
    for index in range(len(blocks) - 1, -1, -1):
        opcode, out_start, out_stop, _, _ = blocks[index]
        a_plan, b_plan = plans[index]
        g = grads[out_start:out_stop]
        if opcode == OP_MUL:
            a_vals, b_vals = cache.operands[index]
            a_plan.scatter(grads, g * b_vals)
            b_plan.scatter(grads, g * a_vals)
        elif opcode == OP_ADD:
            a_plan.scatter(grads, g)
            b_plan.scatter(grads, g)
        else:  # OP_NOT
            a_plan.scatter(grads, -g)
    input_grads = np.zeros((batch, program.input_width), dtype=np.float32)
    if program.num_inputs:
        input_grads[:, program.input_columns] = grads[: program.num_inputs].T
    return input_grads


def execute_bool(program: CompiledProgram, input_matrix) -> np.ndarray:
    """Boolean execution mode: ``(batch, input_width)`` bools to slot values.

    Returns the ``(num_slots, batch)`` boolean slot matrix itself:
    ``program.output_slots`` index the compiled outputs in order, so a caller
    gathers the nets it asked the compiler for with one fancy index and no
    per-net dict is built.
    """
    input_matrix = np.asarray(input_matrix, dtype=np.bool_)
    if input_matrix.ndim != 2 or input_matrix.shape[1] != program.input_width:
        raise ValueError(
            f"expected input matrix of shape (batch, {program.input_width}), "
            f"got {tuple(input_matrix.shape)}"
        )
    batch = input_matrix.shape[0]
    values = _base_values(program, batch, np.bool_, False, True)
    if program.num_inputs:
        values[: program.num_inputs] = input_matrix.T[program.input_columns]
    kernels = _native_kernels()
    if kernels is not None:
        kernels.engine_execute_bool(program, values)
        return values
    for opcode, out_start, out_stop, a_slots, b_slots in program.blocks:
        out = values[out_start:out_stop]
        a = values[a_slots]
        if opcode == OP_MUL:
            np.logical_and(a, values[b_slots], out=out)
        elif opcode == OP_ADD:
            # ADD only encodes XOR-chain sums of disjoint events: OR is exact.
            np.logical_or(a, values[b_slots], out=out)
        else:  # OP_NOT
            np.logical_not(a, out=out)
    return values

