"""The engine-side gradient-descent loop (Eqs. 6--10 without an autodiff tape).

One :func:`learn_batch` call replaces the interpreter's whole per-round
training: sigmoid embedding, compiled forward, closed-form L2-loss gradient,
compiled backward, sigmoid adjoint and optimizer step — five fused NumPy
statements per iteration instead of thousands of per-gate tape nodes.

Every arithmetic step reproduces the legacy interpreter bit for bit:

* the loss gradient is ``d + d`` with ``d = Y - T`` (how the tape's
  ``square = mul(x, x)`` accumulates its two branches);
* the sigmoid adjoint multiplies left to right (``(dP * P) * (1 - P)``);
* parameter updates run through the *same* :class:`~repro.tensor.optim.SGD` /
  :class:`~repro.tensor.optim.Adam` classes, driving a parameter
  :class:`~repro.tensor.tensor.Tensor` whose gradient the engine fills in
  directly.

Device chunking happens here at the program level: the batch is split into
``config.device.chunks`` spans and each span runs the full compiled loop,
so ``gpu-sim`` is one launch and ``cpu`` a per-sample loop — same semantics
as the legacy Python-sliced path, same RNG consumption order.

The loop runs in the float dtype of the initial soft inputs: the sampler
casts its draws to the dtype its config resolves (``float64`` reference or
``float32`` throughput policy), and the targets, the compiled passes and the
optimizer state follow it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.engine.executor import backward, forward
from repro.engine.program import CompiledProgram
from repro.tensor.optim import make_optimizer
from repro.tensor.tensor import Tensor, float_array
from repro import obs

_GD_ITERATIONS = obs.counter(
    "repro_engine_gd_iterations_total",
    "Gradient-descent iterations executed by the compiled engine.",
)

if TYPE_CHECKING:  # imported lazily to keep the engine free of core imports
    from repro.core.config import SamplerConfig


def sigmoid_embedding(soft_inputs):
    """Eq. 6: ``P = sigma(V)`` (bitwise-identical to the tensor op).

    Runs in the float dtype of ``soft_inputs`` (``float64`` for non-float
    input).
    """
    return 1.0 / (1.0 + np.exp(-float_array(soft_inputs)))


def learn_chunk(
    program: CompiledProgram,
    initial_soft_inputs,
    targets,
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
    stop hook cut the chunk short.  The chunk runs in the float dtype of
    ``initial_soft_inputs``; ``targets`` are cast to it.
    """
    parameter = Tensor(initial_soft_inputs, requires_grad=True)
    targets = np.asarray(targets, dtype=parameter.data.dtype)
    optimizer = make_optimizer([parameter], config.optimizer, config.learning_rate)
    loss_history: List[float] = []
    halted = False
    for _ in range(config.iterations):
        if deadline is not None and time.perf_counter() >= deadline:
            halted = True
            break
        if should_stop is not None and should_stop():
            halted = True
            break
        probabilities = sigmoid_embedding(parameter.data)
        outputs, cache = forward(program, probabilities)
        difference = outputs - targets
        loss = float((difference * difference).sum())
        output_grads = difference + difference
        input_grads = backward(program, cache, output_grads)
        parameter.grad = input_grads * probabilities * (1.0 - probabilities)
        optimizer.step()
        loss_history.append(loss)
    if loss_history:
        _GD_ITERATIONS.inc(len(loss_history))
    return parameter.data > 0.0, loss_history, halted


def learn_batch(
    program: CompiledProgram,
    batch_size: int,
    targets,
    config: "SamplerConfig",
    draw_initial: Callable[[int], object],
    deadline: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Tuple[object, List[float], bool]:
    """Learn a full batch of soft assignments with program-level chunking.

    ``draw_initial`` draws the ``(chunk, n)`` Gaussian initialisation for each
    device chunk in order, which keeps RNG consumption identical to the legacy
    interpreter's chunk loop.  When ``deadline`` (absolute
    ``time.perf_counter`` instant) expires or ``should_stop`` returns true —
    both are polled between chunks and, inside :func:`learn_chunk`, between
    iterations — untrained chunks are dropped and the returned matrix is
    truncated to the rows actually learned.  Returns the hard bit matrix, the
    first chunk's loss history (the round-level convergence signal), and
    whether the run was halted early.
    """
    with obs.span("engine.learn_batch") as bspan:
        bspan.set("batch_size", batch_size)
        hard = np.zeros((batch_size, program.input_width), dtype=np.bool_)
        loss_history: List[float] = []
        completed = 0
        halted = False
        for start, stop in config.device.chunks(batch_size):
            if deadline is not None and time.perf_counter() >= deadline:
                halted = True
                break
            if should_stop is not None and should_stop():
                halted = True
                break
            chunk_hard, chunk_losses, chunk_halted = learn_chunk(
                program,
                draw_initial(stop - start),
                targets[start:stop],
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
