"""The probabilistic (differentiable) circuit model.

Mirrors the PyTorch module the paper's parser emits (Fig. 1(c)): the recovered
multi-level, multi-output Boolean function maps input probabilities ``P`` in
``[0, 1]^{b x n}`` to output probabilities ``Y = F(P)`` (Eq. 7) while staying
differentiable end to end, with every gate relaxed per Table I.

Only the *constrained cone* — the gates in the transitive fanin of a
constrained output — is evaluated: the unconstrained paths need no learning
(their inputs can be drawn at random) and excluding them is part of the
operation-count reduction the paper credits for its speedups.

The model is a thin façade over two backends:

* ``"engine"`` (default) — the cone is compiled once by
  :mod:`repro.engine.compiler` into a levelized index-based program and
  executed with fused NumPy ops and a hand-written backward pass.  A forward
  call records a *single* autodiff tape node whose backward delegates to the
  compiled reverse pass, so gradient-based callers see the usual
  :class:`~repro.tensor.tensor.Tensor` interface at a fraction of the cost.
* ``"interpreter"`` — the legacy reference: the cone is walked gate by gate
  in topological order, allocating one tape node per gate.  Kept for
  equivalence testing and as executable documentation of Table I.

Both backends are bitwise-identical (the compiler mirrors the interpreter's
exact operation chains); select one via ``SamplerConfig(backend=...)`` or the
``backend`` constructor argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.core.transform import TransformResult
from repro.engine.compiler import compiled_program_for
from repro.engine.executor import backward as engine_backward
from repro.engine.executor import forward as engine_forward
from repro.engine.program import CompiledProgram
from repro.tensor.tensor import Tensor, _make, full_like_batch, stack_columns, take_column
from repro.tensor.functional import (
    prob_and,
    prob_nand,
    prob_nor,
    prob_not,
    prob_or,
    prob_xnor,
    prob_xor,
)

_GATE_FUNCTIONS = {
    GateType.AND: prob_and,
    GateType.NAND: prob_nand,
    GateType.OR: prob_or,
    GateType.NOR: prob_nor,
    GateType.XOR: prob_xor,
    GateType.XNOR: prob_xnor,
}

#: Recognised evaluation backends.
BACKENDS = ("engine", "interpreter")


class ProbabilisticCircuitModel:
    """Differentiable relaxation of a circuit restricted to its constrained cone."""

    def __init__(
        self,
        circuit: Circuit,
        output_nets: Sequence[str],
        input_order: Optional[Sequence[str]] = None,
        backend: str = "engine",
    ) -> None:
        if not output_nets:
            raise ValueError("the model needs at least one constrained output net")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.circuit = circuit
        self.backend = backend
        self.output_nets: List[str] = list(output_nets)
        cone = circuit.transitive_fanin(self.output_nets)
        self._schedule: List[str] = [
            name for name in circuit.topological_order() if name in cone
        ]
        cone_inputs = [
            name
            for name in circuit.inputs
            if name in cone
        ]
        if input_order is None:
            self.input_order: List[str] = cone_inputs
        else:
            self.input_order = list(input_order)
            missing = set(cone_inputs) - set(self.input_order)
            if missing:
                raise ValueError(
                    f"input_order is missing constrained inputs: {sorted(missing)}"
                )
        self._input_column: Dict[str, int] = {
            name: i for i, name in enumerate(self.input_order)
        }

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

    def num_operations(self) -> int:
        """Number of probabilistic gate evaluations per forward pass (cone only)."""
        count = 0
        for name in self._schedule:
            gate = self.circuit.gate(name)
            if gate.gate_type.is_source or gate.gate_type == GateType.BUF:
                continue
            count += max(len(gate.fanins) - 1, 1)
        return count

    # -- forward pass ------------------------------------------------------------------
    def forward(self, probabilities: Tensor) -> Tensor:
        """Compute output probabilities ``Y = F(P)`` for a batch of inputs.

        ``probabilities`` has shape ``(batch, num_inputs)`` with columns
        ordered like :attr:`input_order`.
        """
        if probabilities.ndim != 2 or probabilities.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected probabilities of shape (batch, {self.num_inputs}), "
                f"got {probabilities.shape}"
            )
        if self.backend == "engine":
            return self._forward_engine(probabilities)
        return self._forward_interpreter(probabilities)

    __call__ = forward

    def _forward_engine(self, probabilities: Tensor) -> Tensor:
        """Compiled forward: one tape node wrapping the program's reverse pass."""
        program = self.program
        outputs, cache = engine_forward(program, probabilities.data)

        def backward(grad: np.ndarray) -> None:
            if probabilities.requires_grad:
                probabilities._accumulate_grad(engine_backward(program, cache, grad))

        return _make(outputs, (probabilities,), backward, "compiled_circuit")

    def _forward_interpreter(self, probabilities: Tensor) -> Tensor:
        """Legacy reference: walk the cone gate by gate on the autodiff tape."""
        batch_size = probabilities.shape[0]
        dtype = probabilities.data.dtype
        values: Dict[str, Tensor] = {}
        for name in self._schedule:
            gate = self.circuit.gate(name)
            if gate.gate_type == GateType.INPUT:
                values[name] = take_column(probabilities, self._input_column[name])
            elif gate.gate_type == GateType.CONST0:
                values[name] = full_like_batch(batch_size, 0.0, dtype)
            elif gate.gate_type == GateType.CONST1:
                values[name] = full_like_batch(batch_size, 1.0, dtype)
            elif gate.gate_type == GateType.BUF:
                values[name] = values[gate.fanins[0]]
            elif gate.gate_type == GateType.NOT:
                values[name] = prob_not(values[gate.fanins[0]])
            else:
                fanin_values = [values[f] for f in gate.fanins]
                values[name] = _GATE_FUNCTIONS[gate.gate_type](fanin_values)
        return stack_columns([values[name] for name in self.output_nets])

    # -- construction helpers ----------------------------------------------------------
    @classmethod
    def from_transform(
        cls, result: TransformResult, backend: str = "engine"
    ) -> "ProbabilisticCircuitModel":
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
            backend=backend,
        )

    def describe(self) -> Dict[str, int]:
        """Size summary used in reports and memory estimation."""
        info = {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "scheduled_nets": len(self._schedule),
            "operations": self.num_operations(),
        }
        if self.backend == "engine":
            program = self.program
            info["compiled_ops"] = program.num_ops
            info["compiled_levels"] = program.num_levels
        return info
