"""Array marshalling, per-program caching and the C tier's kernel class.

:mod:`repro.native.cext` builds and loads the raw kernels, which work over
flat C-contiguous buffers; this module owns everything above them:

* flattening a :class:`~repro.engine.program.CompiledProgram` into the
  per-op layout the kernels consume — :func:`engine_native_state`, memoised
  *on the program* so it drops with its owner exactly like the engine's
  block arrays.  The memo is additionally tracked in an
  :class:`~repro.utils.weakcache.OwnerRegistry` so
  :func:`repro.native.clear_caches` (folded into
  :func:`repro.clear_caches`) can strip it process-wide;
* the :class:`NativeKernels` class the engine executor calls.  Its methods
  take compiled programs and host NumPy arrays and work in place,
  bitwise-identical to the NumPy executor paths (gradients: up to the
  accumulation order of operand gradients).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.utils.weakcache import OwnerRegistry

#: Programs holding memoised native states.
_PROGRAM_OWNERS = OwnerRegistry()


def clear_artifact_caches() -> None:
    """Strip the native memo off every live program."""
    _PROGRAM_OWNERS.clear(lambda program: program.__dict__.pop("_native_state", None))


# -- engine program flattening ----------------------------------------------------------
@dataclass(frozen=True)
class EngineNativeState:
    """A compiled program as flat per-op arrays (the native execution layout)."""

    opcodes: np.ndarray  # uint8
    a_slots: np.ndarray  # int32
    b_slots: np.ndarray  # int32 (0 for NOT ops; never read)
    out_slots: np.ndarray  # int32

    @property
    def num_ops(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def nbytes(self) -> int:
        return int(
            self.opcodes.nbytes
            + self.a_slots.nbytes
            + self.b_slots.nbytes
            + self.out_slots.nbytes
        )


def engine_native_state(program) -> EngineNativeState:
    """Flatten ``program`` into per-op arrays, memoised on the program.

    The memo rides the program object, so it is dropped together with the
    program by the engine's mutation-driven invalidation and by the serving
    layer's byte-bounded :class:`~repro.serve.cache.ArtifactCache` eviction;
    :func:`repro.native.clear_caches` strips it explicitly.
    """
    state = program.__dict__.get("_native_state")
    if state is None:
        num_ops = program.num_ops
        opcodes = np.empty(num_ops, dtype=np.uint8)
        a_slots = np.empty(num_ops, dtype=np.int32)
        b_slots = np.zeros(num_ops, dtype=np.int32)
        out_slots = np.empty(num_ops, dtype=np.int32)
        position = 0
        for block in program.blocks:
            stop = position + block.size
            opcodes[position:stop] = block.opcode
            a_slots[position:stop] = block.a_slots
            if block.b_slots.size:
                b_slots[position:stop] = block.b_slots
            out_slots[position:stop] = np.arange(
                block.out_start, block.out_stop, dtype=np.int32
            )
            position = stop
        state = EngineNativeState(opcodes, a_slots, b_slots, out_slots)
        program._native_state = state
        _PROGRAM_OWNERS.register(program)
    return state


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


class NativeKernels:
    """The C tier's engine kernels behind a program-level API.

    The methods take compiled programs and host NumPy slot matrices, do the
    marshalling (flat per-op arrays, pointer views) and call
    the compiled library through :mod:`ctypes`.
    """

    tier = "cext"

    def __init__(self) -> None:
        from repro.native import cext

        self._lib = cext.load_library()

    @staticmethod
    def _program_args(state):
        return (
            state.num_ops,
            _ptr(state.opcodes, ctypes.c_uint8),
            _ptr(state.a_slots, ctypes.c_int32),
            _ptr(state.b_slots, ctypes.c_int32),
            _ptr(state.out_slots, ctypes.c_int32),
        )

    def engine_forward(self, program, values) -> None:
        """Run the op stream in place over the ``(slots, batch)`` float32 matrix."""
        state = engine_native_state(program)
        self._lib.repro_engine_forward(
            _ptr(values, ctypes.c_float), values.shape[1], *self._program_args(state)
        )

    def engine_backward(self, program, values, grads) -> None:
        """Accumulate float32 operand gradients in place (reverse op order)."""
        state = engine_native_state(program)
        self._lib.repro_engine_backward(
            _ptr(values, ctypes.c_float),
            _ptr(grads, ctypes.c_float),
            values.shape[1],
            *self._program_args(state),
        )

    def engine_execute_bool(self, program, values) -> None:
        """Boolean mode in place over the ``(slots, batch)`` bool matrix."""
        state = engine_native_state(program)
        self._lib.repro_engine_execute_bool(
            _ptr(values.view(np.uint8), ctypes.c_uint8),
            values.shape[1],
            *self._program_args(state),
        )

    def engine_execute_packed(self, program, values) -> None:
        """Bit-parallel mode in place over the ``(slots, lanes)`` uint64 matrix."""
        state = engine_native_state(program)
        self._lib.repro_engine_execute_packed(
            _ptr(values, ctypes.c_uint64), values.shape[1], *self._program_args(state)
        )
