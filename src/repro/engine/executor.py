"""Execute a :class:`CompiledProgram`: fused forward, backward, bool, packed.

The value state of one execution is a dense ``(num_slots, batch)`` matrix —
slot-major so that every fused block writes a *contiguous* row range with one
fused array statement.  Three execution modes share the one program:

* :func:`forward` / :func:`backward` — the probabilistic relaxation in the
  float dtype of the input probabilities with a hand-written reverse pass.  The closed-form
  adjoints of the three primitive ops are all the engine needs (Table I's
  derivatives compose out of them): ``MUL`` routes ``g*b`` / ``g*a``, ``ADD``
  routes ``g`` twice and ``NOT`` routes ``-g``.  No autodiff tape, no
  per-gate Python objects.
* :func:`execute_bool` — the same program over boolean arrays
  (``MUL = &``, ``ADD = |``, ``NOT = ~``); backs circuit simulation.
* :func:`execute_packed` — 64 samples per ``uint64`` word, the classic
  bit-parallel simulation mode.

The float modes follow the dtype of their input (non-float input runs in
``float64``), so the same compiled program runs under the ``float64``
reference policy or the ``numpy:float32`` throughput policy.  When the
native C tier is available (:mod:`repro.native`), every mode runs its op
stream there instead of the per-block array statements.

``ADD`` appearing only in XOR chains (disjoint operands) is what makes the
``|`` / bitwise interpretations exact — see :mod:`repro.engine.program`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.program import OP_ADD, OP_MUL, OP_NOT, CompiledProgram

#: Float dtypes the native engine kernels cover.
_NATIVE_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: All-ones packed word (the packed ``NOT`` mask and constant-1 lanes).
_ONES_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def float_array(data) -> np.ndarray:
    """``data`` as a float NumPy array (a view when no conversion is needed).

    Float input keeps its dtype; any other input (bool, int, Python
    sequences of ints) becomes ``float64``.
    """
    array = np.asarray(data)
    return array if array.dtype.kind == "f" else array.astype(np.float64)


def _native_kernels(float_dtype=None):
    """The native kernel set to engage for an execution, or ``None``.

    Native execution engages exactly when the C tier builds (and
    ``REPRO_NATIVE`` is not ``off``; see :mod:`repro.native`).  Float
    executions engage it only for the ``float_dtype`` values the C kernels
    cover.
    """
    if float_dtype is not None and float_dtype not in _NATIVE_FLOAT_DTYPES:
        return None
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
    keeps alive if it intends to run :func:`backward`.  Runs in the float
    dtype of ``probabilities`` (``float64`` for non-float input).
    """
    probabilities = float_array(probabilities)
    if probabilities.ndim != 2 or probabilities.shape[1] != program.input_width:
        raise ValueError(
            f"expected probabilities of shape (batch, {program.input_width}), "
            f"got {tuple(probabilities.shape)}"
        )
    batch = probabilities.shape[0]
    values = _base_values(program, batch, probabilities.dtype, 0.0, 1.0)
    if program.num_inputs:
        values[: program.num_inputs] = probabilities.T[program.input_columns]
    kernels = _native_kernels(probabilities.dtype)
    if kernels is not None:
        # One C pass over the flat op stream; elementwise per op, so
        # bitwise identical to the fused block path below.
        kernels.engine_forward(program, values)
        outputs = values[program.output_slots].T.copy()
        return outputs, NativeForwardCache(values, kernels)
    operands: List[Optional[Tuple]] = []
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            b = values[block.b_slots]
            np.multiply(a, b, out=out)
            operands.append((a, b))  # reused by the MUL adjoint
        elif block.opcode == OP_ADD:
            np.add(a, values[block.b_slots], out=out)
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
    Runs in the float dtype of the forward pass that produced ``cache``.
    """
    values = cache.values
    output_grads = np.asarray(output_grads, dtype=values.dtype)
    batch = values.shape[1]
    if tuple(output_grads.shape) != (batch, len(program.output_nets)):
        raise ValueError(
            f"expected output grads of shape ({batch}, {len(program.output_nets)}), "
            f"got {tuple(output_grads.shape)}"
        )
    grads = np.zeros_like(values)
    program.output_plan.scatter(grads, output_grads.T)
    if isinstance(cache, NativeForwardCache):
        # Sequential per-op reverse accumulation; matches the block path
        # within the engine's 1e-10 gradient contract (NumPy's scatter
        # reductions use platform-dependent accumulation orders).
        cache.kernels.engine_backward(program, values, grads)
        input_grads = np.zeros((batch, program.input_width), dtype=values.dtype)
        if program.num_inputs:
            input_grads[:, program.input_columns] = grads[: program.num_inputs].T
        return input_grads
    for index in range(len(program.blocks) - 1, -1, -1):
        block = program.blocks[index]
        g = grads[block.out_start : block.out_stop]
        if block.opcode == OP_MUL:
            a_vals, b_vals = cache.operands[index]
            block.a_plan.scatter(grads, g * b_vals)
            block.b_plan.scatter(grads, g * a_vals)
        elif block.opcode == OP_ADD:
            block.a_plan.scatter(grads, g)
            block.b_plan.scatter(grads, g)
        else:  # OP_NOT
            block.a_plan.scatter(grads, -g)
    input_grads = np.zeros((batch, program.input_width), dtype=values.dtype)
    if program.num_inputs:
        input_grads[:, program.input_columns] = grads[: program.num_inputs].T
    return input_grads


def execute_bool(program: CompiledProgram, input_matrix) -> np.ndarray:
    """Boolean execution mode: ``(batch, input_width)`` bools to slot values.

    Returns the ``(num_slots, batch)`` boolean slot matrix itself: row
    ``program.net_slot[name]`` holds net ``name`` and ``program.output_slots``
    index the compiled outputs in order, so a caller gathers the nets it
    asked the compiler for with one fancy index and no per-net dict is built.
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
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            np.logical_and(a, values[block.b_slots], out=out)
        elif block.opcode == OP_ADD:
            # ADD only encodes XOR-chain sums of disjoint events: OR is exact.
            np.logical_or(a, values[block.b_slots], out=out)
        else:  # OP_NOT
            np.logical_not(a, out=out)
    return values


def execute_packed(
    program: CompiledProgram, packed_inputs: Dict[str, object]
) -> Dict[str, np.ndarray]:
    """Bit-parallel execution mode: 64 samples per ``uint64`` lane.

    ``packed_inputs`` maps every cone primary input to an identically shaped
    ``uint64`` array; returns a map from every compiled net to its packed
    vector of the same shape.
    """
    template = None
    columns = []
    for name in program.cone_inputs:
        if name not in packed_inputs:
            raise ValueError(f"no packed vector provided for primary input {name!r}")
        array = np.asarray(packed_inputs[name], dtype=np.uint64)
        if template is not None and tuple(array.shape) != tuple(template.shape):
            raise ValueError(
                f"packed input arrays must share a shape; {name!r} has "
                f"{tuple(array.shape)}, expected {tuple(template.shape)}"
            )
        template = array
        columns.append(array.reshape(-1))
    if template is None and packed_inputs:
        # Cone has no primary inputs (constant-driven outputs): the callers'
        # packed arrays still dictate the lane count and output shape.
        template = np.asarray(next(iter(packed_inputs.values())), dtype=np.uint64)
    lanes = int(template.size) if template is not None else 1
    shape = tuple(template.shape) if template is not None else (1,)
    values = np.empty((program.num_slots, lanes), dtype=np.uint64)
    if program.const0_slot >= 0:
        values[program.const0_slot] = 0
    if program.const1_slot >= 0:
        values[program.const1_slot] = _ONES_U64
    for slot, column in enumerate(columns):
        values[slot] = column
    kernels = _native_kernels()
    if kernels is not None:
        kernels.engine_execute_packed(program, values)
        return {
            name: values[slot].reshape(shape)
            for name, slot in program.net_slot.items()
        }
    for block in program.blocks:
        out = values[block.out_start : block.out_stop]
        a = values[block.a_slots]
        if block.opcode == OP_MUL:
            np.bitwise_and(a, values[block.b_slots], out=out)
        elif block.opcode == OP_ADD:
            np.bitwise_or(a, values[block.b_slots], out=out)
        else:  # OP_NOT
            np.bitwise_xor(a, _ONES_U64, out=out)
    return {
        name: values[slot].reshape(shape) for name, slot in program.net_slot.items()
    }
