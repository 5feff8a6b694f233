"""The C tier's kernel class: compiled programs in, ctypes calls out.

:mod:`repro.native.cext` builds and loads the raw kernels, which work over
flat C-contiguous buffers.  :class:`NativeKernels` is what the engine
executor calls: its methods take a
:class:`~repro.engine.program.CompiledProgram` and a host NumPy slot matrix
and work in place, bitwise-identical to the NumPy executor paths
(gradients: up to the accumulation order of operand gradients).

The kernels read the program's own per-op arrays (``opcodes``, ``a_slots``,
``b_slots`` and the first out slot, passed as
:attr:`CompiledProgram.stream_args
<repro.engine.program.CompiledProgram.stream_args>`) — the compiler emits
them in exactly the layout the C loop walks, and a store load hands over
zero-copy views that :meth:`CompiledProgram.check
<repro.engine.program.CompiledProgram.check>` accepted — so there is no
per-program flattening and nothing to memoise or clear.  Buffers cross
into C as raw addresses (``c_void_p``), the cheapest argument ctypes
converts.
"""

from __future__ import annotations

import numpy as np


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class NativeKernels:
    """The C tier's engine kernels behind a program-level API."""

    tier = "cext"

    def __init__(self) -> None:
        from repro.native import cext

        self._lib = cext.load_library()

    def engine_forward(self, program, values) -> None:
        """Run the op stream in place over the ``(slots, batch)`` float32 matrix."""
        self._lib.repro_engine_forward(
            _address(values), values.shape[1], *program.stream_args
        )

    def engine_backward(self, program, values, grads) -> None:
        """Accumulate float32 operand gradients in place (reverse op order)."""
        self._lib.repro_engine_backward(
            _address(values), _address(grads), values.shape[1], *program.stream_args
        )

    def engine_execute_bool(self, program, values) -> None:
        """Boolean mode in place over the ``(slots, batch)`` bool matrix."""
        self._lib.repro_engine_execute_bool(
            _address(values), values.shape[1], *program.stream_args
        )
