"""Reference oracle: the per-gate autodiff interpreter and its learning loops.

Before the compiled engine, the sampler walked the constrained cone gate by
gate on the reverse-mode tape of :mod:`tests.oracles.tensor`, allocating one
tape node per gate, and trained on that tape.  The library now ships only
the engine (:mod:`repro.engine`); this module keeps the interpreter as
executable documentation of Table I and as the oracle the engine is pinned
to, bit for bit:

* :class:`InterpreterModel` — the per-gate forward pass over a circuit
  cone, returning a tape :class:`~tests.oracles.tensor.tensor.Tensor`; for
  a transform it is the cone and column order of
  :attr:`RoundPlan.learn <repro.core.transform.RoundPlan.learn>`;
* :func:`learn_constrained_inputs` and :func:`learning_curve` — the
  interpreter's learning loops, written as drop-in replacements for the
  sampler's engine-backed methods;
* :func:`use_interpreter` — installs those replacements for one test, so a
  sampler run on the interpreter can be compared with an engine run.

The tape follows the dtype of its input, and the sampler's draws are
``float64``, so by default the interpreter learns in ``float64``: the
reference the ``float32`` engine is pinned to.  ``use_interpreter(...,
dtype=np.float32)`` casts the draws first, for a same-precision comparison.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.core.sampler import GradientSATSampler
from repro.core.solutions import SolutionSet
from repro.core.transform import TransformResult
from tests.oracles.tensor.functional import (
    l2_loss,
    prob_and,
    prob_nand,
    prob_nor,
    prob_not,
    prob_or,
    prob_xnor,
    prob_xor,
    sigmoid,
)
from tests.oracles.tensor.optim import SGD
from tests.oracles.tensor.tensor import (
    Tensor,
    as_tensor,
    full_like_batch,
    stack_columns,
    take_column,
)

_GATE_FUNCTIONS = {
    GateType.AND: prob_and,
    GateType.NAND: prob_nand,
    GateType.OR: prob_or,
    GateType.NOR: prob_nor,
    GateType.XOR: prob_xor,
    GateType.XNOR: prob_xnor,
}


class InterpreterModel:
    """The cone of ``output_nets`` evaluated gate by gate on the autodiff tape.

    Its columns are ``input_order``, by default the cone's primary inputs in
    the circuit's input order.
    """

    def __init__(
        self,
        circuit: Circuit,
        output_nets: Sequence[str],
        input_order: Optional[Sequence[str]] = None,
    ) -> None:
        self.circuit = circuit
        self.output_nets: List[str] = list(output_nets)
        if input_order is None:
            cone = circuit.transitive_fanin(self.output_nets)
            input_order = [name for name in circuit.inputs if name in cone]
        self.input_order: List[str] = list(input_order)

    @property
    def num_inputs(self) -> int:
        return len(self.input_order)

    @classmethod
    def from_transform(cls, transform: TransformResult) -> "InterpreterModel":
        """The constrained cone with the columns of ``round_plan.learn``."""
        return cls(
            transform.circuit,
            transform.constraint_nets(),
            transform.round_plan.constrained_inputs,
        )

    def schedule(self) -> List[str]:
        """The cone's nets in the circuit's topological order."""
        cone = self.circuit.transitive_fanin(self.output_nets)
        return [name for name in self.circuit.topological_order() if name in cone]

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
        input_column = {name: i for i, name in enumerate(self.input_order)}
        batch_size = probabilities.shape[0]
        dtype = probabilities.data.dtype
        values: Dict[str, Tensor] = {}
        for name in self.schedule():
            gate = self.circuit.gate(name)
            if gate.gate_type == GateType.INPUT:
                values[name] = take_column(probabilities, input_column[name])
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

    __call__ = forward


def target_matrix(batch_size: int, output_names) -> np.ndarray:
    """The all-ones ``(batch, num_outputs)`` target matrix ``T`` of Eq. 8.

    Every constrained output is an auxiliary constraint net that must
    evaluate to 1; the engine subtracts the scalar instead.
    """
    return np.ones((batch_size, len(output_names)), dtype=np.float64)


def regression_loss(outputs: Tensor, targets: np.ndarray) -> Tensor:
    """The Eq. 8 loss between probabilistic outputs and 0/1 targets.

    The targets are cast to the outputs' float dtype.
    """
    if outputs.shape != targets.shape:
        raise ValueError(
            f"output shape {outputs.shape} does not match target shape {targets.shape}"
        )
    return l2_loss(outputs, as_tensor(targets, outputs))


def _learn_chunk(
    model: InterpreterModel,
    soft_inputs: Tensor,
    targets: np.ndarray,
    config,
    deadline: Optional[float],
    should_stop: Optional[Callable[[], bool]],
) -> Tuple[np.ndarray, List[float], bool]:
    """The configured GD iterations on one chunk; returns hard bits (``V > 0``)."""
    optimizer = SGD([soft_inputs], lr=config.learning_rate)
    loss_history: List[float] = []
    halted = False
    for _ in range(config.iterations):
        if deadline is not None and time.perf_counter() >= deadline:
            halted = True
            break
        if should_stop is not None and should_stop():
            halted = True
            break
        optimizer.zero_grad()
        outputs = model.forward(sigmoid(soft_inputs))
        loss = regression_loss(outputs, targets)
        loss.backward()
        optimizer.step()
        loss_history.append(loss.item())
    return soft_inputs.data > 0.0, loss_history, halted


def _learn_batch(
    model: InterpreterModel,
    batch_size: int,
    targets: np.ndarray,
    config,
    draw_initial: Callable[[int], np.ndarray],
    deadline: Optional[float],
    should_stop: Optional[Callable[[], bool]],
) -> Tuple[np.ndarray, List[float], bool]:
    """The Python-sliced ``chunk_size`` loop around :func:`_learn_chunk`."""
    hard = np.zeros((batch_size, model.num_inputs), dtype=np.bool_)
    loss_history: List[float] = []
    completed = 0
    halted = False
    size = config.chunk_size or max(batch_size, 1)
    spans = [(start, min(start + size, batch_size)) for start in range(0, batch_size, size)]
    for start, stop in spans:
        if deadline is not None and time.perf_counter() >= deadline:
            halted = True
            break
        if should_stop is not None and should_stop():
            halted = True
            break
        soft_inputs = Tensor(draw_initial(stop - start), requires_grad=True)
        chunk_hard, chunk_losses, chunk_halted = _learn_chunk(
            model, soft_inputs, targets[start:stop], config, deadline, should_stop
        )
        hard[start:stop] = chunk_hard
        completed = stop
        if not loss_history:
            loss_history = chunk_losses
        if chunk_halted:
            halted = True
            break
    return hard[:completed], loss_history, halted


def learn_constrained_inputs(
    sampler: GradientSATSampler,
    batch_size: int,
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    dtype=np.float64,
) -> Tuple[np.ndarray, List[float], bool]:
    """Drop-in for ``GradientSATSampler._learn_constrained_inputs``.

    Learns in ``dtype``: the sampler's ``float64`` draws are cast to it.
    """
    model = InterpreterModel.from_transform(sampler.transform)
    return _learn_batch(
        model,
        batch_size,
        target_matrix(batch_size, model.output_nets),
        sampler.config,
        lambda rows: sampler._draw_initial_soft_inputs(rows).astype(dtype),
        deadline,
        should_stop,
    )


def learning_curve(
    sampler: GradientSATSampler,
    max_iterations: int,
    batch_size: Optional[int],
    dtype=np.float64,
) -> List[int]:
    """Drop-in for ``GradientSATSampler._learning_curve`` (Fig. 3, left)."""
    batch = batch_size or sampler.config.batch_size
    solutions = SolutionSet(sampler.formula.num_variables, project=sampler._projection)
    curve: List[int] = []
    if sampler._plan.learn is None:
        for _ in range(max_iterations + 1):
            assignments, valid_mask, _ = sampler._random_round(batch)
            solutions.add_batch(assignments, valid_mask)
            curve.append(len(solutions))
        return curve

    model = InterpreterModel.from_transform(sampler.transform)
    soft_inputs = Tensor(
        sampler._draw_initial_soft_inputs(batch).astype(dtype), requires_grad=True
    )
    optimizer = SGD([soft_inputs], lr=sampler.config.learning_rate)
    targets = target_matrix(batch, model.output_nets)
    for iteration in range(max_iterations + 1):
        if iteration > 0:
            optimizer.zero_grad()
            outputs = model.forward(sigmoid(soft_inputs))
            loss = regression_loss(outputs, targets)
            loss.backward()
            optimizer.step()
        assignments, valid_mask = sampler._assemble(soft_inputs.data > 0.0)
        solutions.add_batch(assignments, valid_mask)
        curve.append(len(solutions))
    return curve


def use_interpreter(monkeypatch, dtype=np.float64) -> None:
    """Run the sampler's learning on the interpreter, in ``dtype``, for the
    current test."""

    def learn(sampler, batch_size, deadline=None, should_stop=None):
        return learn_constrained_inputs(sampler, batch_size, deadline, should_stop, dtype)

    def curve(sampler, max_iterations, batch_size):
        return learning_curve(sampler, max_iterations, batch_size, dtype)

    monkeypatch.setattr(GradientSATSampler, "_learn_constrained_inputs", learn)
    monkeypatch.setattr(GradientSATSampler, "_learning_curve", curve)
