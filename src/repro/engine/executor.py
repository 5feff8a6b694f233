"""Execute a :class:`CompiledProgram`: forward, backward and bool modes.

The value state of one execution is a dense ``(num_slots, batch)`` matrix —
slot-major, so that every op reads and writes whole contiguous rows.  Each
mode is one call into the C tier (:mod:`repro.native`), which runs the
program's flat op stream in order; two execution modes share the one
program:

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
``tests/oracles/``, and the per-op NumPy loop the kernels equal bit for bit
is ``tests/oracles/executor.py``.

``ADD`` appearing only in XOR chains (disjoint operands) is what makes the
``|`` / bitwise interpretations exact — see :mod:`repro.engine.program`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.program import CompiledProgram
from repro.native import kernels_for


def float_array(data) -> np.ndarray:
    """``data`` as a ``float32`` NumPy array (``data`` itself when it is one)."""
    return np.asarray(data, dtype=np.float32)


class ForwardCache:
    """Forward-pass state kept alive for the reverse pass: the slot matrix."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values


def _base_values(program: CompiledProgram, batch: int, dtype, zero, one):
    """Allocate the slot matrix and fill the base (input/constant) rows."""
    values = np.empty((program.num_slots, batch), dtype=dtype)
    if program.const0_slot >= 0:
        values[program.const0_slot] = zero
    if program.const1_slot >= 0:
        values[program.const1_slot] = one
    return values


def forward(program: CompiledProgram, probabilities) -> Tuple[np.ndarray, ForwardCache]:
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
    kernels_for(None).engine_forward(program, values)
    outputs = values[program.output_slots].T.copy()
    return outputs, ForwardCache(values)


def backward(program: CompiledProgram, cache: ForwardCache, output_grads) -> np.ndarray:
    """Reverse pass: map ``dL/dY`` to ``dL/dP`` using the forward cache.

    ``output_grads`` is ``(batch, m)`` like the forward outputs; the result
    has the caller's input-matrix shape ``(batch, input_width)`` with zeros in
    columns outside the cone (the per-gate reference's scatter semantics).
    Runs in ``float32``, like the forward pass that produced ``cache``;
    operand gradients accumulate in reverse op order.
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
    kernels_for(None).engine_backward(program, values, grads)
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
    kernels_for(None).engine_execute_bool(program, values)
    return values
