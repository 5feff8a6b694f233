"""The gradient-descent SAT sampler (Section III of the paper).

The sampler learns a batch of candidate solutions in parallel:

1. the trainable matrix ``V`` in ``R^{b x n}`` holds one soft assignment per
   batch element over the constrained primary inputs;
2. the sigmoid embedding ``P = sigma(V)`` (Eq. 6) maps it to probabilities;
3. the probabilistic circuit model — the constrained cone's compiled
   program, :attr:`RoundPlan.learn <repro.core.transform.RoundPlan.learn>` —
   computes output probabilities ``Y = F(P)`` (Eq. 7);
4. the L2 loss against the all-ones target (Eq. 8) is minimised by plain
   gradient descent (Eq. 10) for a handful of iterations;
5. the learned soft inputs are thresholded to hard bits, the unconstrained
   primary inputs and free variables are drawn uniformly at random, the
   intermediate variables are computed by simulating the recovered circuit,
   and the resulting full assignments are validated against the *original*
   CNF; unique valid assignments are retained.

A round runs only the transform's round plan
(:attr:`TransformResult.round_plan`, compiled once per artifact, so a
sampler costs almost nothing to build) and the formula's CNF plan: the
plan's learn program trains steps 1-4, its ``intp`` row maps route the hard
bits and the draws into a variable-major ``(num_variables, batch)`` matrix,
one pass of its fill program fills the defined-variable rows, and the CNF
plan and the dedup read the transposed ``(batch, num_variables)`` view
without a transposing copy.

Each batch element is learned independently, so the whole loop vectorises
across the batch — the property the paper exploits for GPU acceleration, and
that the default ``chunk_size=0`` reproduces with one full-batch launch.

The GD loop is the compiled levelized engine's (:mod:`repro.engine.train`)
— fused forward, hand-written backward, no per-gate tape — for sampling
rounds and for the Fig. 3 learning curve alike.  The tests pin its
fixed-seed solution streams to the per-gate autodiff reference kept under
``tests/oracles/``.

The learning arrays are ``float32``: the sampler draws its Gaussian
initialisation (and adds any weight bias) in ``float64``, and the GD loop
casts it once.  Weight vectors are never trained and stay ``float64``;
assembly, circuit simulation and CNF validation are boolean.  Candidate
streams are reproducible: one seeded generator
(:func:`repro.utils.rng.new_rng`) feeds every draw, and :meth:`reset_rng`
restarts it so a re-run reproduces a sampling run exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cnf.formula import CNF
from repro.cnf.kernel import CNFEvalPlan
from repro.core.config import SamplerConfig
from repro.core.solutions import SolutionSet
from repro.core.task import DEFAULT_TASK, SamplingTask
from repro.core.transform import RoundPlan, TransformResult, transform_cnf
from repro.engine.executor import float_array
from repro.engine.train import descend
from repro.engine.train import learn_batch as engine_learn_batch
from repro.utils.rng import new_rng
from repro import obs

_SAMPLER_ROUNDS = obs.counter(
    "repro_sampler_rounds_total",
    "Completed gradient-descent sampling rounds.",
)
_SAMPLER_SOLUTIONS = obs.counter(
    "repro_sampler_solutions_total",
    "Candidate assignments by outcome across sampling rounds.",
    labels=("outcome",),
)
_ROUND_SECONDS = obs.histogram(
    "repro_sampler_round_seconds",
    "Wall-clock seconds per sampling round.",
)


@dataclass
class RoundRecord:
    """Statistics of one sampling round (one batch of candidates)."""

    round_index: int
    num_candidates: int
    num_valid: int
    num_new_unique: int
    loss_history: List[float] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class SampleResult:
    """Outcome of a sampling run."""

    solutions: SolutionSet
    num_requested: int
    num_generated: int
    num_valid: int
    rounds: List[RoundRecord]
    elapsed_seconds: float
    timed_out: bool = False
    #: True when a ``should_stop`` callback halted the run before the target,
    #: round limit, stall limit or timeout did (cooperative cancellation —
    #: how the portfolio scheduler retires losing runs).
    stopped_early: bool = False
    #: The workload kind this run sampled (``SamplingTask.kind()``):
    #: ``"default"`` or a ``+``-joined combination of ``projected`` /
    #: ``weighted`` / ``incremental``.
    task_kind: str = "default"

    @property
    def num_unique(self) -> int:
        """Number of unique valid solutions found.

        Under a projected task the solution set deduplicates on the projected
        columns, so this already counts distinct projected patterns.
        """
        return len(self.solutions)

    @property
    def projected_unique(self) -> int:
        """Distinct projected patterns found (equals :attr:`num_unique` when
        the task is unprojected — the projection is then the identity)."""
        return len(self.solutions)

    @property
    def throughput(self) -> float:
        """Unique valid solutions per second (the Table II metric)."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.num_unique else 0.0
        return self.num_unique / self.elapsed_seconds

    @property
    def validity_rate(self) -> float:
        """Fraction of generated candidates that satisfied the original CNF."""
        if self.num_generated == 0:
            return 0.0
        return self.num_valid / self.num_generated

    def solution_matrix(self, limit: Optional[int] = None) -> np.ndarray:
        """Unique solutions as a boolean matrix over the original variables."""
        return self.solutions.to_matrix(limit)

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by the evaluation reports."""
        return {
            "unique_solutions": self.num_unique,
            "generated": self.num_generated,
            "valid": self.num_valid,
            "validity_rate": self.validity_rate,
            "seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "rounds": len(self.rounds),
            "timed_out": self.timed_out,
            "stopped_early": self.stopped_early,
            "task": self.task_kind,
            "projected_unique": self.projected_unique,
        }


class _Compiled(NamedTuple):
    """A formula with its transform and both compiled plans (the sampler's
    view of a :class:`~repro.serve.cache.SamplingArtifact`)."""

    formula: CNF
    transform: TransformResult
    round: RoundPlan
    plan: CNFEvalPlan


class GradientSATSampler:
    """Batched gradient-descent sampler over a transformed CNF instance.

    ``formula`` is the CNF to sample (transformed here unless ``transform``
    is given), or a compiled :class:`~repro.serve.cache.SamplingArtifact`.
    Either way the sampler is bound to a
    :class:`~repro.core.transform.RoundPlan` and a
    :class:`~repro.cnf.kernel.CNFEvalPlan`, and its rounds read nothing else:
    learn, fill, validate and the row maps all come from those two plans.  A
    store-loaded artifact therefore samples without decoding its formula or
    transform; :attr:`formula` and :attr:`transform` fetch them on access.
    """

    def __init__(
        self,
        formula,
        transform: Optional[TransformResult] = None,
        config: Optional[SamplerConfig] = None,
        task: Optional[SamplingTask] = None,
    ) -> None:
        if isinstance(formula, CNF):
            transform = transform if transform is not None else transform_cnf(formula)
            formula = _Compiled(formula, transform, transform.round_plan, formula.evaluation_plan())
        elif transform is not None:
            raise TypeError("transform= is only accepted with a CNF formula")
        self._compiled = formula
        self._plan = formula.round
        self._cnf_plan = formula.plan
        self.config = config or SamplerConfig()
        self._rng = new_rng(self.config.seed)
        # The task shapes *how* this sampler counts and draws, not *what* it
        # samples: the plans must already be the effective post-delta
        # formula's — the pipeline / serving tier applies ``task.delta``
        # before constructing the sampler.  Here the task contributes the
        # projection columns for dedup and the per-variable weight vectors
        # for initialization.
        self.task = task if task is not None else DEFAULT_TASK
        self._projection = self.task.projection_columns(self._plan.num_variables) or None
        self._init_weight_vectors()

    @property
    def formula(self) -> CNF:
        """The formula solutions are validated against."""
        return self._compiled.formula

    @property
    def transform(self) -> TransformResult:
        """The transform whose round plan this sampler runs."""
        return self._compiled.transform

    # -- public API ---------------------------------------------------------------------
    def reset_rng(self) -> None:
        """Restart the sampler's random stream from the configured seed.

        After a reset, the next :meth:`sample` call reproduces a fresh
        sampler's run exactly.
        """
        self._rng = new_rng(self.config.seed)

    def sample(
        self,
        num_solutions: int = 1000,
        *,
        should_stop: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[RoundRecord, np.ndarray], None]] = None,
    ) -> SampleResult:
        """Generate at least ``num_solutions`` unique valid solutions (best effort).

        Sampling stops when the target count is reached, the configured round
        limit is exhausted, the wall-clock timeout expires, or ``should_stop``
        returns true.  The stop callback is polled at exactly the deadline
        check points — between rounds, between chunks and between GD
        iterations — so cancellation latency is bounded by one iteration and
        the partial round learned so far is still validated and kept
        (``stopped_early`` is set on the result).  ``on_round`` is invoked
        after every round's dedup with the :class:`RoundRecord` and the
        round's *new unique* solutions as a boolean matrix — the streaming
        hook ``repro.serve`` uses to forward incremental results.
        """
        with obs.span("sampler.sample") as sspan:
            result = self._sample(num_solutions, should_stop, on_round)
            sspan.set("rounds", len(result.rounds))
            sspan.set("unique_solutions", result.num_unique)
            return result

    def _sample(
        self,
        num_solutions: int,
        should_stop: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[RoundRecord, np.ndarray], None]] = None,
    ) -> SampleResult:
        if num_solutions <= 0:
            raise ValueError(f"num_solutions must be positive, got {num_solutions}")
        start = time.perf_counter()
        deadline = (
            None
            if self.config.timeout_seconds is None
            else start + self.config.timeout_seconds
        )
        solutions = SolutionSet(self._plan.num_variables, project=self._projection)
        rounds: List[RoundRecord] = []
        num_generated = 0
        num_valid = 0
        timed_out = False
        stopped_early = False
        stalled_rounds = 0

        for round_index in range(self.config.max_rounds):
            if len(solutions) >= num_solutions:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                timed_out = True
                break
            if should_stop is not None and should_stop():
                stopped_early = True
                break
            if (
                self.config.stall_rounds is not None
                and stalled_rounds >= self.config.stall_rounds
            ):
                # Several consecutive rounds added nothing: the reachable
                # solution space is very likely exhausted for this batch size.
                break
            round_start = time.perf_counter()
            rspan = obs.span("sampler.round")
            try:
                assignments, valid_mask, loss_history, round_halted = self._run_round(
                    self.config.batch_size, deadline, should_stop
                )
                stored_before = len(solutions)
                new_unique = solutions.add_batch(assignments, valid_mask)
                num_generated += assignments.shape[0]
                round_valid = int(valid_mask.sum())
            except BaseException as exc:
                rspan.set("error", type(exc).__name__)
                rspan.finish()
                raise
            num_valid += round_valid
            stalled_rounds = stalled_rounds + 1 if new_unique == 0 else 0
            record = RoundRecord(
                round_index=round_index,
                num_candidates=assignments.shape[0],
                num_valid=round_valid,
                num_new_unique=new_unique,
                loss_history=loss_history,
                seconds=time.perf_counter() - round_start,
            )
            rounds.append(record)
            rspan.set("round", round_index)
            rspan.set("valid", round_valid)
            rspan.set("new_unique", new_unique)
            rspan.finish()
            _SAMPLER_ROUNDS.inc()
            _ROUND_SECONDS.observe(record.seconds)
            _SAMPLER_SOLUTIONS.inc(record.num_candidates, "generated")
            _SAMPLER_SOLUTIONS.inc(round_valid, "valid")
            _SAMPLER_SOLUTIONS.inc(new_unique, "new_unique")
            if on_round is not None:
                on_round(record, solutions.matrix_since(stored_before))
            if round_halted:
                # The deadline expired (or the stop hook fired) inside the
                # round's GD loop; the partial candidates above are kept, but
                # no new round starts.  The hook is re-polled to attribute
                # the halt: a live stop request is cancellation, anything
                # else was the deadline.
                if should_stop is not None and should_stop():
                    stopped_early = True
                else:
                    timed_out = True
                break
        elapsed = time.perf_counter() - start
        return SampleResult(
            solutions=solutions,
            num_requested=num_solutions,
            num_generated=num_generated,
            num_valid=num_valid,
            rounds=rounds,
            elapsed_seconds=elapsed,
            timed_out=timed_out,
            stopped_early=stopped_early,
            task_kind=self.task.kind(),
        )

    def learning_curve(
        self, max_iterations: int = 10, batch_size: Optional[int] = None
    ) -> List[int]:
        """Unique valid solutions after each GD iteration (Fig. 3, left).

        Runs a single batch and revalidates the hard assignments after every
        iteration, returning the cumulative unique-solution count per
        iteration (index 0 is the random initialisation before any update).
        ``batch_size=None`` uses the configured batch size.  Raises
        ``ValueError`` for ``max_iterations < 0`` or ``batch_size <= 0``.
        """
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return self._learning_curve(max_iterations, batch_size)

    def _learning_curve(
        self, max_iterations: int, batch_size: Optional[int]
    ) -> List[int]:
        batch = self.config.batch_size if batch_size is None else batch_size
        solutions = SolutionSet(self._plan.num_variables, project=self._projection)
        curve: List[int] = []

        if self._plan.learn is None:
            # No constrained paths: every iteration adds fresh random samples.
            for _ in range(max_iterations + 1):
                assignments, valid_mask, _ = self._random_round(batch)
                solutions.add_batch(assignments, valid_mask)
                curve.append(len(solutions))
            return curve

        soft_inputs = float_array(self._draw_initial_soft_inputs(batch))
        steps = descend(self._plan.learn, soft_inputs, self.config)
        for iteration in range(max_iterations + 1):
            if iteration > 0:
                soft_inputs, _ = next(steps)
            assignments, valid_mask = self._assemble(soft_inputs > 0.0)
            solutions.add_batch(assignments, valid_mask)
            curve.append(len(solutions))
        return curve

    # -- internals ------------------------------------------------------------------------
    def _init_weight_vectors(self) -> None:
        """Precompute the per-variable weight vectors (``float64``).

        A weight ``p`` on variable ``v`` biases the sampler's *initialization*
        (never the loss): constrained inputs start their Gaussian ``V`` draw
        shifted by ``logit(p)`` so ``sigma(V)`` is centred on ``p``, while
        unconstrained inputs and free variables are drawn Bernoulli(``p``)
        instead of fair coins.  All three vectors are ``None`` for unweighted
        tasks, keeping the arithmetic (and the RNG stream) bitwise identical
        to the pre-task sampler.
        """
        self._constrained_bias = None
        self._unconstrained_probs = None
        self._free_probs = None
        if not self.task.is_weighted:
            return
        logits = self.task.weight_logits(self._plan.num_variables)
        probs = self.task.weight_map()

        def weights(rows: np.ndarray, table, default: float) -> List[float]:
            return [table.get(row + 1, default) for row in rows.tolist()]

        bias = weights(self._plan.constrained_rows, logits, 0.0)
        if any(bias):
            self._constrained_bias = np.asarray(bias, dtype=np.float64)[np.newaxis, :]
        unconstrained = weights(self._plan.unconstrained_rows, probs, 0.5)
        if any(probability != 0.5 for probability in unconstrained):
            self._unconstrained_probs = np.asarray(unconstrained, dtype=np.float64)
        free = weights(self._plan.free_rows, probs, 0.5)
        if any(probability != 0.5 for probability in free):
            self._free_probs = np.asarray(free, dtype=np.float64)

    def _draw_initial_soft_inputs(self, batch_size: int) -> np.ndarray:
        """Draw the Gaussian initialisation of ``V`` for one chunk (Eq. 6 input).

        The draw (and the weight bias) is summed in ``float64``; the GD loop
        casts it to ``float32``, and the reference oracles under ``tests/``
        learn from the same ``float64`` values.
        """
        draw = self._rng.normal(
            0.0, self.config.init_scale, size=(batch_size, len(self._plan.constrained_rows))
        )
        if self._constrained_bias is not None:
            draw = draw + self._constrained_bias
        return draw

    def _learn_constrained_inputs(
        self,
        batch_size: int,
        deadline: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[np.ndarray, List[float], bool]:
        """Learn constrained inputs for a full batch in ``chunk_size`` spans.

        The whole batch goes to the compiled program's training loop, which
        chunks at the program level and checks the ``deadline`` and the
        ``should_stop`` hook between chunks and between GD iterations,
        truncating the batch to the rows actually learned when either fires.
        """
        return engine_learn_batch(
            self._plan.learn,
            batch_size,
            self.config,
            self._draw_initial_soft_inputs,
            deadline,
            should_stop,
        )

    def _assemble(self, constrained_bits) -> Tuple[np.ndarray, np.ndarray]:
        """Build full CNF assignments from constrained-input bits and validate them.

        The round plan routes the bits and the draws (unconstrained, then
        free) into variable-major rows and fills the defined rows; the
        candidates are their transpose, validated by the CNF plan.
        """
        plan = self._plan
        batch = constrained_bits.shape[0]
        rows = np.zeros((plan.num_variables, batch), dtype=np.bool_)
        rows[plan.constrained_rows] = constrained_bits.T
        rows[plan.unconstrained_rows] = self._draw_bits(
            batch, plan.unconstrained_rows, self._unconstrained_probs
        )
        rows[plan.free_rows] = self._draw_bits(batch, plan.free_rows, self._free_probs)
        plan.fill_defined_rows(rows)
        assignments = rows.T
        valid_mask = self._cnf_plan.evaluate(assignments)
        return assignments, valid_mask

    def _draw_bits(self, batch_size: int, rows: np.ndarray, probs) -> np.ndarray:
        """``(len(rows), batch)`` random bits: uniform draws below 0.5 or ``probs``.

        Weighted tasks compare the same uniform draws against per-variable
        target probabilities instead of 0.5 — identical RNG consumption, so
        unweighted tasks keep their exact candidate bit-stream.  An empty
        draw consumes nothing from the generator.
        """
        draws = self._rng.random((batch_size, len(rows)))
        return (draws < (0.5 if probs is None else probs)).T

    def _run_round(
        self,
        batch_size: int,
        deadline: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[float], bool]:
        """One sampling round: learn (if needed), assemble and validate a batch."""
        if self._plan.learn is None:
            assignments, valid_mask, loss_history = self._random_round(batch_size)
            halted = (
                deadline is not None and time.perf_counter() >= deadline
            ) or (should_stop is not None and should_stop())
            return assignments, valid_mask, loss_history, halted
        constrained_bits, loss_history, halted = self._learn_constrained_inputs(
            batch_size, deadline, should_stop
        )
        assignments, valid_mask = self._assemble(constrained_bits)
        return assignments, valid_mask, loss_history, halted

    def _random_round(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray, List[float]]:
        """Round for instances without constrained paths: pure random assignment."""
        constrained_bits = np.zeros((batch_size, 0), dtype=np.bool_)
        assignments, valid_mask = self._assemble(constrained_bits)
        return assignments, valid_mask, []
