"""The sampler's gradient-descent loop (Eqs. 6--10) on plain arrays.

One :func:`learn_batch` call runs a sampling round's whole training:
sigmoid embedding, compiled forward, closed-form L2-loss gradient, compiled
backward, sigmoid adjoint and the Eq. 10 step — five fused NumPy statements
per iteration (:func:`descend`), with no autodiff tape.  This is the only
gradient-descent implementation in the library; the sampler's rounds and
the Fig. 3 learning curve run it.

Every arithmetic step reproduces, bit for bit, the per-gate autodiff walk
the engine replaced (kept as the reference oracle under ``tests/oracles/``):

* the loss gradient is ``d + d`` with ``d = Y - 1`` (how a tape's
  ``square = mul(x, x)`` accumulates its two branches; every target of
  Eq. 8 is 1, so the loop subtracts the scalar instead of a target matrix);
* the sigmoid adjoint multiplies left to right (``(dP * P) * (1 - P)``);
* the Eq. 10 step is ``V - lr * grad``, the reference SGD's arithmetic.

Chunking happens here at the program level: the batch is split into spans
of ``config.chunk_size`` rows (0 = the whole batch as one launch) and each
span runs the full compiled loop — same semantics as the reference's
Python-sliced path, same RNG consumption order.

The loop runs in ``float32``: the initial soft inputs are cast once (the
sampler draws them in ``float64``, so the random stream is the reference
oracle's), and the compiled passes follow them.  Under NumPy's weak Python
scalars, ``Y - 1.0`` and the learning rate stay ``float32``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.executor import backward, float_array, forward
from repro.engine.program import CompiledProgram
from repro import obs

_GD_ITERATIONS = obs.counter(
    "repro_engine_gd_iterations_total",
    "Gradient-descent iterations executed by the compiled engine.",
)

if TYPE_CHECKING:  # imported lazily to keep the engine free of core imports
    from repro.core.config import SamplerConfig


def sigmoid_embedding(soft_inputs):
    """Eq. 6: ``P = sigma(V)``, in ``float32``."""
    return 1.0 / (1.0 + np.exp(-float_array(soft_inputs)))


def descend(
    program: CompiledProgram,
    initial_soft_inputs,
    config: "SamplerConfig",
) -> Iterator[Tuple[np.ndarray, float]]:
    """Gradient descent from ``initial_soft_inputs``, one step per ``next()``.

    Each step yields the updated soft inputs ``V`` and the Eq. 8 loss
    (against the all-ones target) evaluated *before* the update; the update
    is Eq. 10, ``V <- V - lr * dL/dV`` at ``config.learning_rate``.  Runs in
    ``float32``.
    """
    soft_inputs = float_array(initial_soft_inputs)
    lr = config.learning_rate
    while True:
        probabilities = sigmoid_embedding(soft_inputs)
        outputs, cache = forward(program, probabilities)
        difference = outputs - 1.0
        loss = float((difference * difference).sum())
        input_grads = backward(program, cache, difference + difference)
        grad = input_grads * probabilities * (1.0 - probabilities)
        soft_inputs = soft_inputs - lr * grad
        yield soft_inputs, loss


def learn_chunk(
    program: CompiledProgram,
    initial_soft_inputs,
    config: "SamplerConfig",
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[object, List[float], bool]:
    """Run the configured GD iterations on one chunk of soft inputs.

    ``deadline`` is an absolute ``time.perf_counter`` instant; when it passes
    mid-chunk the remaining iterations are skipped (the overshoot is bounded
    by one iteration instead of a whole round) and the partially-trained bits
    are still returned — downstream validation decides whether they satisfy
    the formula.  ``should_stop`` is the cooperative-cancellation hook
    (polled at exactly the deadline check points): a truthy return abandons
    the remaining iterations the same way an expired deadline does, so an
    external scheduler — the portfolio scheduler of :mod:`repro.serve` in
    particular — can retire a chunk mid-flight.  Returns the thresholded
    hard bits (``V > 0``), the loss history, and whether the deadline or the
    stop hook cut the chunk short.
    """
    soft_inputs = float_array(initial_soft_inputs)
    steps = descend(program, soft_inputs, config)
    loss_history: List[float] = []
    halted = False
    for _ in range(config.iterations):
        if deadline is not None and time.perf_counter() >= deadline:
            halted = True
            break
        if should_stop is not None and should_stop():
            halted = True
            break
        soft_inputs, loss = next(steps)
        loss_history.append(loss)
    if loss_history:
        _GD_ITERATIONS.inc(len(loss_history))
    return soft_inputs > 0.0, loss_history, halted


def learn_batch(
    program: CompiledProgram,
    batch_size: int,
    config: "SamplerConfig",
    draw_initial: Callable[[int], object],
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[object, List[float], bool]:
    """Learn a full batch of soft assignments with program-level chunking.

    ``draw_initial`` draws the ``(chunk, n)`` Gaussian initialisation for each
    ``config.chunk_size`` span in order (0 = one span over the whole batch; a
    chunk larger than the batch is one span, an empty batch none), which
    keeps RNG consumption identical to the reference oracle's chunk loop.
    When ``deadline`` (absolute ``time.perf_counter`` instant) expires or
    ``should_stop`` returns true — both are polled between chunks and,
    inside :func:`learn_chunk`, between iterations — untrained chunks are
    dropped and the returned matrix is truncated to the rows actually
    learned.  Returns the hard bit matrix, the first chunk's loss history
    (the round-level convergence signal), and whether the run was halted
    early.
    """
    with obs.span("engine.learn_batch") as bspan:
        bspan.set("batch_size", batch_size)
        hard = np.zeros((batch_size, program.input_width), dtype=np.bool_)
        loss_history: List[float] = []
        completed = 0
        halted = False
        step = config.chunk_size or max(batch_size, 1)
        for start in range(0, batch_size, step):
            stop = min(start + step, batch_size)
            if deadline is not None and time.perf_counter() >= deadline:
                halted = True
                break
            if should_stop is not None and should_stop():
                halted = True
                break
            chunk_hard, chunk_losses, chunk_halted = learn_chunk(
                program,
                draw_initial(stop - start),
                config,
                deadline,
                should_stop,
            )
            hard[start:stop] = chunk_hard
            completed = stop
            if not loss_history:
                loss_history = chunk_losses
            if chunk_halted:
                halted = True
                break
        return hard[:completed], loss_history, halted
