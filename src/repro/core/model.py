"""The probabilistic (differentiable) circuit model.

Mirrors the PyTorch module the paper's parser emits (Fig. 1(c)): the recovered
multi-level, multi-output Boolean function maps input probabilities ``P`` in
``[0, 1]^{b x n}`` to output probabilities ``Y = F(P)`` (Eq. 7) while staying
differentiable end to end, with every gate relaxed per Table I.

Only the *constrained cone* — the gates in the transitive fanin of a
constrained output — is evaluated: the unconstrained paths need no learning
(their inputs can be drawn at random) and excluding them is part of the
operation-count reduction the paper credits for its speedups.

The cone is compiled once by :mod:`repro.engine.compiler` into a levelized,
index-based program (:attr:`ProbabilisticCircuitModel.program`); callers
run it with :func:`repro.engine.executor.forward` /
:func:`~repro.engine.executor.backward` — fused NumPy ops and a
hand-written reverse pass — and train on it with :mod:`repro.engine.train`.
The gate-by-gate walk it replaced is the reference oracle under
``tests/oracles/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.engine.compiler import compiled_program_for
from repro.engine.program import CompiledProgram

if TYPE_CHECKING:  # the transform caches its model: avoid an import cycle
    from repro.core.transform import TransformResult


class ProbabilisticCircuitModel:
    """Differentiable relaxation of a circuit restricted to its constrained cone."""

    def __init__(
        self,
        circuit: Circuit,
        output_nets: Sequence[str],
        input_order: Optional[Sequence[str]] = None,
    ) -> None:
        if not output_nets:
            raise ValueError("the model needs at least one constrained output net")
        self.circuit = circuit
        self.output_nets: List[str] = list(output_nets)
        cone = circuit.transitive_fanin(self.output_nets)
        cone_inputs = [name for name in circuit.inputs if name in cone]
        if input_order is None:
            self.input_order: List[str] = cone_inputs
        else:
            self.input_order = list(input_order)
            missing = set(cone_inputs) - set(self.input_order)
            if missing:
                raise ValueError(
                    f"input_order is missing constrained inputs: {sorted(missing)}"
                )

    # -- shape information ----------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Number of input probability columns the model expects."""
        return len(self.input_order)

    @property
    def num_outputs(self) -> int:
        """Number of constrained outputs."""
        return len(self.output_nets)

    @property
    def program(self) -> CompiledProgram:
        """The compiled levelized program for this cone.

        Resolved through the circuit-level memo on every access (an O(1)
        dict hit) rather than cached on the model, so netlist mutations can
        never leave the engine executing a stale program.
        """
        return compiled_program_for(self.circuit, self.output_nets, self.input_order)

    # -- construction helpers ----------------------------------------------------------
    @classmethod
    def from_transform(cls, result: TransformResult) -> "ProbabilisticCircuitModel":
        """Build the model for the constrained paths of a transformation result.

        The model's input order is exactly ``result.constrained_inputs()``;
        raises ``ValueError`` when the instance has no constraints (nothing to
        learn — every random assignment already satisfies the formula).
        """
        constraint_nets = result.constraint_nets()
        if not constraint_nets:
            raise ValueError(
                "transformation produced no constrained outputs; sampling needs no model"
            )
        return cls(
            result.circuit,
            output_nets=constraint_nets,
            input_order=result.constrained_inputs(),
        )
