"""The levelized, index-based program representation the compiler emits.

A :class:`CompiledProgram` is the engine's whole intermediate representation:
the constrained cone of a :class:`~repro.circuit.netlist.Circuit`, lowered to
three primitive elementwise opcodes over integer *value slots*:

========  =====================  ==========================================
opcode    probabilistic form     boolean / packed form
========  =====================  ==========================================
``MUL``   ``out = a * b``        ``out = a & b``
``ADD``   ``out = a + b``        ``out = a | b`` (operands always disjoint)
``NOT``   ``out = 1 - a``        ``out = ~a`` / ``a ^ ones``
========  =====================  ==========================================

Every Table-I probabilistic gate decomposes into these three ops with exactly
the operation order of the per-gate relaxations (AND is a left-to-right
product chain, OR a complement-product chain, XOR a pairwise chain), so the
compiled forward pass is *bitwise identical* to a gate-by-gate walk of the
cone — the reference oracle the engine is tested against
(``tests/oracles/``).  ``ADD`` only ever appears in the XOR chain, where its two
operands are disjoint events — which is why plain ``|`` realises it in the
boolean and bit-packed execution modes and one program serves all three.

Ops are grouped into :class:`OpBlock` batches: all ops of one opcode on one
topological *level* execute as a single fused NumPy call over a contiguous
range of output slots.  No dicts and no string keys survive compilation —
the hot path sees nothing but ``int32`` index arrays and dense value arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Primitive opcodes (values index no table; they are plain tags).
OP_MUL = 0
OP_ADD = 1
OP_NOT = 2

OPCODE_NAMES = {OP_MUL: "mul", OP_ADD: "add", OP_NOT: "not"}


@dataclass(frozen=True)
class ScatterPlan:
    """Precompiled gradient scatter for one operand-slot array.

    Buffered fancy-index accumulation (``grads[slots] += rows``) silently
    drops duplicate indices, and ``np.add.at`` — the unbuffered alternative —
    is an order of magnitude slower.  The plan resolves this at compile time:
    duplicate-free slot arrays take the fast buffered path, and arrays with
    duplicates are stably argsorted once so the runtime can segment-sum the
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


@dataclass(frozen=True)
class OpBlock:
    """A fused batch of same-opcode ops on one level.

    Output slots are contiguous (``[out_start, out_start + size)``), so each
    block executes as one vectorised NumPy statement reading the fancy-indexed
    operand rows and writing a contiguous row range of the value matrix.
    """

    opcode: int
    level: int
    out_start: int
    size: int
    #: Slot index of the first operand of every op in the block.
    a_slots: np.ndarray
    #: Slot index of the second operand (``MUL``/``ADD`` only; empty for ``NOT``).
    b_slots: np.ndarray
    #: Precompiled gradient scatters for the two operand arrays.
    a_plan: Optional[ScatterPlan] = None
    b_plan: Optional[ScatterPlan] = None

    @property
    def out_stop(self) -> int:
        """One past the last output slot of the block."""
        return self.out_start + self.size


@dataclass
class CompiledProgram:
    """A levelized straight-line program computing one circuit cone.

    Slot layout (one row of the value matrix per slot):

    * ``[0, num_inputs)`` — the cone's primary inputs, ordered like
      :attr:`cone_inputs`; slot ``i`` is loaded from input column
      ``input_columns[i]`` of the caller's ``(batch, n)`` matrix;
    * ``num_inputs`` / ``num_inputs + 1`` — constant 0 / 1 slots (present
      only when :attr:`has_const0` / :attr:`has_const1`);
    * the remainder — op outputs, contiguous per :class:`OpBlock`, in
      non-decreasing level order.

    ``net_slot`` maps every net of the compiled cone to its value slot
    (BUF gates are aliased away at compile time and share their fanin's
    slot, exactly like a gate-by-gate walk shares the fanin value).
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
    const0_slot: int = -1
    const1_slot: int = -1
    blocks: List[OpBlock] = field(default_factory=list)
    #: Slot of every requested output net, in request order.
    output_slots: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    output_nets: List[str] = field(default_factory=list)
    net_slot: Dict[str, int] = field(default_factory=dict)
    #: Gradient scatter for the output slots (handles aliased outputs).
    output_plan: Optional[ScatterPlan] = None

    def __getstate__(self):
        # Native kernels attach an EngineNativeState (ctypes arrays, library
        # handles) under ``_native_state``; it is process-local and
        # unpicklable, so serialised programs (repro.store entries, spawned
        # workers) drop it and re-prepare lazily on first native execution.
        state = dict(self.__dict__)
        state.pop("_native_state", None)
        return state

    @property
    def num_levels(self) -> int:
        """Number of distinct execution levels."""
        return 0 if not self.blocks else self.blocks[-1].level

    @property
    def num_ops(self) -> int:
        """Total primitive ops (fused NumPy statements touch many at once)."""
        return sum(block.size for block in self.blocks)

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the compiled representation.

        Sums the index arrays of every block (operand slots plus scatter-plan
        permutations) and the program-level arrays; the slot dictionary is
        estimated per entry.  Used by byte-bounded artifact caches
        (:mod:`repro.serve.cache`) to account for compiled state.
        """

        def plan_bytes(plan: Optional[ScatterPlan]) -> int:
            if plan is None:
                return 0
            total = plan.slots.nbytes
            for extra in (plan.perm, plan.starts, plan.unique_slots):
                if extra is not None:
                    total += extra.nbytes
            return total

        total = self.input_columns.nbytes + self.output_slots.nbytes
        total += plan_bytes(self.output_plan)
        for block in self.blocks:
            total += block.a_slots.nbytes + block.b_slots.nbytes
            total += plan_bytes(block.a_plan) + plan_bytes(block.b_plan)
        # Rough per-entry footprint of the net -> slot mapping (pointer-heavy).
        total += 64 * len(self.net_slot)
        return total

    def describe(self) -> Dict[str, int]:
        """Compact size summary (used by reports and tests)."""
        return {
            "slots": self.num_slots,
            "inputs": self.num_inputs,
            "outputs": len(self.output_nets),
            "ops": self.num_ops,
            "blocks": len(self.blocks),
            "levels": self.num_levels,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(source={self.source_name!r}, slots={self.num_slots}, "
            f"ops={self.num_ops}, blocks={len(self.blocks)}, levels={self.num_levels})"
        )
