"""Direct circuit sampling (no CNF round-trip).

Section IV-C of the paper suggests that "SAT applications in high-level
logical formats could be directly transformed into a multi-level,
multi-output Boolean function" — i.e. when the constraints are already a
circuit (Verilog, ``.bench``, a :class:`~repro.circuit.netlist.Circuit` built
with the builder API), the CNF encode/recover round-trip can be skipped
entirely.  :class:`CircuitSampler` does exactly that: it applies the same
probabilistic relaxation and batched gradient-descent loop straight to the
circuit, with per-output 0/1 targets (the constrained-random-verification
use case of pinning response bits).

Solutions are reported over the circuit's primary inputs and validated by
bit-exact circuit simulation, so there is no CNF anywhere in the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.simulate import simulate
from repro.core.config import SamplerConfig
from repro.core.loss import target_matrix
from repro.core.model import ProbabilisticCircuitModel
from repro.core.solutions import SolutionSet
from repro.engine.train import learn_batch as engine_learn_batch
from repro.utils.rng import new_rng
from repro import obs


@dataclass
class CircuitSampleResult:
    """Outcome of a direct circuit-sampling run (inputs-space solutions)."""

    solutions: SolutionSet
    input_order: List[str]
    num_generated: int
    num_valid: int
    elapsed_seconds: float
    rounds: int
    loss_history: List[float] = field(default_factory=list)
    timed_out: bool = False
    #: True when a ``should_stop`` callback halted the run early (see
    #: :attr:`repro.core.sampler.SampleResult.stopped_early`).
    stopped_early: bool = False

    @property
    def num_unique(self) -> int:
        """Number of unique valid input vectors found."""
        return len(self.solutions)

    @property
    def throughput(self) -> float:
        """Unique valid input vectors per second."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.num_unique else 0.0
        return self.num_unique / self.elapsed_seconds

    @property
    def validity_rate(self) -> float:
        """Fraction of generated candidates that met every output target."""
        if self.num_generated == 0:
            return 0.0
        return self.num_valid / self.num_generated

    def input_matrix(self, limit: Optional[int] = None) -> np.ndarray:
        """Unique input vectors as a boolean matrix ordered like ``input_order``."""
        return self.solutions.to_matrix(limit)

    def as_assignments(self, limit: Optional[int] = None) -> List[Dict[str, bool]]:
        """Unique input vectors as ``{input name: value}`` dictionaries."""
        matrix = self.input_matrix(limit)
        return [dict(zip(self.input_order, row.tolist())) for row in matrix]


class CircuitSampler:
    """Gradient-descent sampling of input vectors satisfying circuit output targets."""

    def __init__(
        self,
        circuit: Circuit,
        output_targets: Optional[Dict[str, bool]] = None,
        config: Optional[SamplerConfig] = None,
    ) -> None:
        if not circuit.outputs and not output_targets:
            raise ValueError("the circuit has no outputs and no output_targets were given")
        self.circuit = circuit
        self.config = config or SamplerConfig()
        if output_targets is None:
            output_targets = {name: True for name in circuit.outputs}
        for net in output_targets:
            if not circuit.has_net(net):
                raise ValueError(f"output target references unknown net {net!r}")
        self.output_targets: Dict[str, bool] = dict(output_targets)
        self._dtype = self.config.float_dtype()
        self._rng = new_rng(self.config.seed)

        self.model = ProbabilisticCircuitModel(
            circuit, output_nets=list(self.output_targets)
        )
        self._constrained_inputs = list(self.model.input_order)
        constrained = set(self._constrained_inputs)
        self._unconstrained_inputs = [
            name for name in circuit.inputs if name not in constrained
        ]
        self.input_order: List[str] = list(circuit.inputs)

    # -- public API ------------------------------------------------------------------
    def reset_rng(self) -> None:
        """Restart the random stream from the configured seed (see
        :meth:`GradientSATSampler.reset_rng <repro.core.sampler.GradientSATSampler.reset_rng>`)."""
        self._rng = new_rng(self.config.seed)

    def sample(
        self,
        num_solutions: int = 1000,
        *,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> CircuitSampleResult:
        """Generate at least ``num_solutions`` unique valid input vectors (best effort).

        ``should_stop`` is polled at the same points as the timeout deadline
        (between rounds, device chunks and GD iterations); a truthy return
        halts the run cooperatively with ``stopped_early`` set on the result.
        """
        with obs.trace_scope(self.config.telemetry):
            return self._sample(num_solutions, should_stop)

    def _sample(
        self,
        num_solutions: int,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> CircuitSampleResult:
        if num_solutions <= 0:
            raise ValueError(f"num_solutions must be positive, got {num_solutions}")
        start = time.perf_counter()
        deadline = (
            None
            if self.config.timeout_seconds is None
            else start + self.config.timeout_seconds
        )
        solutions = SolutionSet(len(self.input_order))
        loss_history: List[float] = []
        num_generated = 0
        num_valid = 0
        rounds = 0
        stalled = 0
        timed_out = False
        stopped_early = False

        while rounds < self.config.max_rounds and len(solutions) < num_solutions:
            if deadline is not None and time.perf_counter() >= deadline:
                timed_out = True
                break
            if should_stop is not None and should_stop():
                stopped_early = True
                break
            if (
                self.config.stall_rounds is not None
                and stalled >= self.config.stall_rounds
            ):
                break
            rounds += 1
            inputs, losses, round_halted = self._one_round(
                self.config.batch_size, deadline, should_stop
            )
            loss_history.extend(losses)
            valid = self._validate(inputs)
            num_generated += inputs.shape[0]
            num_valid += int(valid.sum())
            added = solutions.add_batch(inputs, valid)
            stalled = stalled + 1 if added == 0 else 0
            if round_halted:
                if should_stop is not None and should_stop():
                    stopped_early = True
                else:
                    timed_out = True
                break

        return CircuitSampleResult(
            solutions=solutions,
            input_order=self.input_order,
            num_generated=num_generated,
            num_valid=num_valid,
            elapsed_seconds=time.perf_counter() - start,
            rounds=rounds,
            loss_history=loss_history,
            timed_out=timed_out,
            stopped_early=stopped_early,
        )

    # -- internals --------------------------------------------------------------------
    def _one_round(
        self,
        batch_size: int,
        deadline: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[np.ndarray, List[float], bool]:
        """Learn one batch of constrained inputs and assemble full input vectors.

        Training runs in the compiled engine's loop, which chunks at the
        program level.  The ``deadline`` (absolute ``time.perf_counter``
        instant) and the ``should_stop`` hook are checked between device
        chunks and GD iterations; when either fires the batch is truncated
        to the rows actually learned and the halted flag is set.
        """
        targets = target_matrix(batch_size, self.model.output_nets, self.output_targets)
        constrained_bits, losses, halted = engine_learn_batch(
            self.model.program,
            batch_size,
            targets,
            self.config,
            self._draw_initial_soft_inputs,
            deadline,
            should_stop,
        )
        return self._assemble_inputs(constrained_bits), losses, halted

    def _draw_initial_soft_inputs(self, chunk: int) -> np.ndarray:
        """Gaussian initialisation of ``V`` for one chunk, in the sampler's dtype."""
        draw = self._rng.normal(
            0.0, self.config.init_scale, size=(chunk, self.model.num_inputs)
        )
        return draw.astype(self._dtype, copy=False)

    def _assemble_inputs(self, constrained_bits):
        """Scatter learned bits and random unconstrained bits into input vectors."""
        batch_size = constrained_bits.shape[0]
        inputs = np.zeros((batch_size, len(self.input_order)), dtype=np.bool_)
        column_of = {name: i for i, name in enumerate(self.input_order)}
        for source, name in enumerate(self._constrained_inputs):
            inputs[:, column_of[name]] = constrained_bits[:, source]
        if self._unconstrained_inputs:
            random_bits = self._rng.random(
                (batch_size, len(self._unconstrained_inputs))
            ) < 0.5
            for source, name in enumerate(self._unconstrained_inputs):
                inputs[:, column_of[name]] = random_bits[:, source]
        return inputs

    def _validate(self, inputs):
        """Check each input vector against every output target by simulation."""
        values = simulate(
            self.circuit, inputs, input_order=self.input_order,
            nets=list(self.output_targets),
        )
        valid = np.ones(inputs.shape[0], dtype=np.bool_)
        for net, target in self.output_targets.items():
            valid &= values[net] == target
        return valid


def sample_circuit(
    circuit: Circuit,
    output_targets: Optional[Dict[str, bool]] = None,
    num_solutions: int = 1000,
    config: Optional[SamplerConfig] = None,
) -> CircuitSampleResult:
    """One-call direct circuit sampling (see :class:`CircuitSampler`)."""
    sampler = CircuitSampler(circuit, output_targets=output_targets, config=config)
    return sampler.sample(num_solutions=num_solutions)
