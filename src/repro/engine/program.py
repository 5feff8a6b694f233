"""The flat, index-based program representation the compiler emits.

A :class:`CompiledProgram` is the engine's whole intermediate representation:
the constrained cone of a :class:`~repro.circuit.netlist.Circuit`, lowered to
three primitive elementwise opcodes over integer *value slots*:

========  =====================  ==========================================
opcode    probabilistic form     boolean form
========  =====================  ==========================================
``MUL``   ``out = a * b``        ``out = a & b``
``ADD``   ``out = a + b``        ``out = a | b`` (operands always disjoint)
``NOT``   ``out = 1 - a``        ``out = ~a``
========  =====================  ==========================================

Every Table-I probabilistic gate decomposes into these three ops with exactly
the operation order of the per-gate relaxations (AND is a left-to-right
product chain, OR a complement-product chain, XOR a pairwise chain), so the
compiled forward pass is *bitwise identical* to a gate-by-gate walk of the
cone — the reference oracle the engine is tested against
(``tests/oracles/``).  ``ADD`` only ever appears in the XOR chain, where its two
operands are disjoint events — which is why plain ``|`` realises it in the
boolean execution mode and one program serves both.

The program is flat: one op stream of per-op arrays (``opcodes``,
``a_slots``, ``b_slots``), where op ``i`` writes slot
``num_slots - num_ops + i`` and reads only slots below it.  The C kernels
(:mod:`repro.native`) run that stream as is, in one in-order pass.  No dicts
and no string keys survive compilation, and the program is nothing but
named arrays plus a few scalars and names — the artifact store persists it
as arrays (:mod:`repro.store.schema`), after checking
:meth:`CompiledProgram.check` on what it read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Primitive opcodes (values index no table; they are plain tags).
OP_MUL = 0
OP_ADD = 1
OP_NOT = 2

OPCODE_NAMES = {OP_MUL: "mul", OP_ADD: "add", OP_NOT: "not"}


@dataclass(frozen=True)
class ScatterPlan:
    """Precompiled gradient scatter for one slot array — the program's
    output slots, which two aliased output nets can repeat.

    Buffered fancy-index accumulation (``grads[slots] += rows``) silently
    drops duplicate indices, and ``np.add.at`` — the unbuffered alternative —
    is an order of magnitude slower.  The plan resolves this once:
    duplicate-free slot arrays take the fast buffered path, and arrays with
    duplicates are stably argsorted so the runtime can segment-sum the
    contribution rows with ``np.add.reduceat`` and then scatter the per-slot
    sums with one buffered add.
    """

    slots: np.ndarray
    #: True when ``slots`` is duplicate-free (fast path).
    unique: bool
    #: Stable permutation grouping equal slots (dup path only).
    perm: Optional[np.ndarray] = None
    #: ``reduceat`` segment boundaries over the permuted rows (dup path only).
    starts: Optional[np.ndarray] = None
    #: The deduplicated slot targets (dup path only).
    unique_slots: Optional[np.ndarray] = None

    @classmethod
    def build(cls, slots: np.ndarray) -> "ScatterPlan":
        """Analyse ``slots`` and build the appropriate plan."""
        if len(np.unique(slots)) == len(slots):
            return cls(slots=slots, unique=True)
        perm = np.argsort(slots, kind="stable")
        ordered = slots[perm]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        return cls(
            slots=slots,
            unique=False,
            perm=perm,
            starts=starts,
            unique_slots=ordered[starts],
        )

    def scatter(self, grads, contribution) -> None:
        """Accumulate ``contribution`` rows into ``grads`` at ``slots``."""
        if self.unique:
            grads[self.slots] += contribution
        else:
            sums = np.add.reduceat(contribution[self.perm], self.starts, axis=0)
            grads[self.unique_slots] += sums


#: The dtype of each array field of :class:`CompiledProgram`.
ARRAY_DTYPES = {
    "input_columns": np.int32,
    "opcodes": np.uint8,
    "a_slots": np.int32,
    "b_slots": np.int32,
    "output_slots": np.int32,
}


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A straight-line program computing one circuit cone.

    Slot layout (one row of the value matrix per slot):

    * ``[0, num_inputs)`` — the cone's primary inputs, ordered like
      :attr:`cone_inputs`; slot ``i`` is loaded from input column
      ``input_columns[i]`` of the caller's ``(batch, n)`` matrix;
    * ``num_inputs`` / ``num_inputs + 1`` — constant 0 / 1 slots (present
      only when :attr:`const0_slot` / :attr:`const1_slot` are ``>= 0``);
    * the remainder — op outputs: op ``i`` writes slot
      ``first_op_slot + i`` and reads only slots below it.

    BUF gates are aliased away at compile time: a buffered net shares its
    fanin's slot, exactly like a gate-by-gate walk shares the fanin value,
    so two requested outputs may share one entry of :attr:`output_slots`.
    """

    source_name: str
    num_slots: int
    num_inputs: int
    #: Cone primary-input net names, in slot order.
    cone_inputs: List[str]
    #: For each cone input, its column in the caller-supplied input matrix.
    input_columns: np.ndarray
    #: Width of the input matrix the program expects (may exceed the cone).
    input_width: int
    const0_slot: int
    const1_slot: int
    #: Per-op opcode (``uint8``).
    opcodes: np.ndarray
    #: Per-op first operand slot (``int32``).
    a_slots: np.ndarray
    #: Per-op second operand slot (``int32``; 0 and never read for ``NOT``).
    b_slots: np.ndarray
    #: Slot of every requested output net, in request order (``int32``).
    output_slots: np.ndarray
    output_nets: List[str]

    @property
    def num_ops(self) -> int:
        """Total primitive ops."""
        return int(self.opcodes.shape[0])

    @property
    def first_op_slot(self) -> int:
        """The slot op 0 writes; op ``i`` writes ``first_op_slot + i``."""
        return self.num_slots - self.num_ops

    @cached_property
    def stream_args(self) -> Tuple[int, int, int, int, int]:
        """``(num_ops, first_op_slot, opcodes, a_slots, b_slots addresses)``.

        The op stream as the native kernels take it; the addresses point
        into this program's own arrays, so they are never stored.
        """
        return (
            self.num_ops,
            self.first_op_slot,
            *(
                array.__array_interface__["data"][0]
                for array in (self.opcodes, self.a_slots, self.b_slots)
            ),
        )

    @cached_property
    def output_plan(self) -> ScatterPlan:
        """Gradient scatter for the output slots (handles aliased outputs)."""
        return ScatterPlan.build(self.output_slots)

    @property
    def nbytes(self) -> int:
        """Resident size of the program's arrays.

        Used by byte-bounded artifact caches (:mod:`repro.serve.cache`) to
        account for compiled state.
        """
        return int(sum(getattr(self, name).nbytes for name in ARRAY_DTYPES))

    def describe(self) -> Dict[str, int]:
        """Compact size summary (used by reports and tests)."""
        return {
            "slots": self.num_slots,
            "inputs": self.num_inputs,
            "outputs": len(self.output_nets),
            "ops": self.num_ops,
        }

    def check(self) -> None:
        """Raise :class:`ValueError` unless the program is safe to execute.

        The C kernels index the slot matrix with the op arrays unchecked, so
        a program read from outside the process must pass this first:

        * the arrays are contiguous, with the dtypes and lengths above;
          opcodes are ``MUL``/``ADD``/``NOT``, and the base slots are the
          inputs plus the constants, laid out as documented;
        * op ``i`` reads only slots in ``[0, first_op_slot + i)`` — the
          slots the C kernels' in-order pass has written (or loaded) before
          it — with ``NOT``'s unused ``b_slots`` entry held to the same
          bound;
        * input columns lie in ``[0, input_width)`` and output slots in
          ``[0, num_slots)``, one per output name.
        """
        for name, dtype in ARRAY_DTYPES.items():
            array = getattr(self, name)
            if not (
                isinstance(array, np.ndarray)
                and array.dtype == dtype
                and array.ndim == 1
                and array.flags.c_contiguous
            ):
                raise ValueError(f"{name} must be a contiguous 1-D {np.dtype(dtype)} array")
        num_ops = self.num_ops
        base = self.first_op_slot
        if self.num_inputs < 0 or self.input_width < 0 or base < self.num_inputs:
            raise ValueError("slot counts are inconsistent")
        const0 = self.num_inputs if self.const0_slot >= 0 else -1
        const1 = self.num_inputs + (const0 >= 0) if self.const1_slot >= 0 else -1
        if (self.const0_slot, self.const1_slot) != (const0, const1) or base != (
            self.num_inputs + (const0 >= 0) + (const1 >= 0)
        ):
            raise ValueError("constant slots do not follow the inputs")
        if len(self.cone_inputs) != self.num_inputs or self.input_columns.shape[0] != (
            self.num_inputs
        ):
            raise ValueError("cone inputs and input columns differ in length")
        if self.num_inputs and not (
            0 <= int(self.input_columns.min()) and int(self.input_columns.max()) < self.input_width
        ):
            raise ValueError("input column outside the input matrix")
        if self.output_slots.shape[0] != len(self.output_nets):
            raise ValueError("output slots and output names differ in length")
        if self.output_slots.size and not (
            0 <= int(self.output_slots.min()) and int(self.output_slots.max()) < self.num_slots
        ):
            raise ValueError("output slot outside the slot matrix")
        if self.a_slots.shape[0] != num_ops or self.b_slots.shape[0] != num_ops:
            raise ValueError("per-op arrays differ in length")
        if num_ops and int(self.opcodes.max()) > OP_NOT:
            raise ValueError("unknown opcode")
        out_slots = np.arange(base, base + num_ops)
        if num_ops and not (
            (self.a_slots >= 0).all()
            and (self.a_slots < out_slots).all()
            and (self.b_slots >= 0).all()
            and (self.b_slots < out_slots).all()
        ):
            raise ValueError("an operand reads a slot its op has not yet computed")

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(source={self.source_name!r}, slots={self.num_slots}, "
            f"ops={self.num_ops})"
        )
