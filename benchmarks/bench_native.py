"""Native kernels vs the NumPy paths on the two measured hot-loop dominators.

The ``repro.native`` C tier compiles exactly the loops profiling shows
dominate wall-clock once everything NumPy can vectorise is vectorised: the
CNF kernel's clause reduction and the engine executor's per-block slot loops
(forward + backward).  This benchmark times each dominator on the headline
instance with the native tier engaged and with kernels forced off
(``use_kernel("python")``), prints the two speedups, and rewrites
``BENCH_native.json`` with the record — committing the file each PR
accumulates the tier's perf trajectory in version history.

All timed loops run *warm*: the one-time C build cost is paid by the
session-scoped ``warm_native_kernels`` fixture (see ``conftest.py``) and
reported separately in the record as ``compile_seconds``.

The gate asserts the best dominator speedup against
``REPRO_BENCH_NATIVE_MIN_SPEEDUP`` (default 2.0; CI uses a lower floor for
noisy shared runners).  Hosts where the C tier cannot be brought up skip
loudly instead of silently passing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs.bench import time_passes
from benchmarks.bench_transform_cold import HEADLINE_INSTANCE
from benchmarks.conftest import engine_bench_batch, native_min_speedup
from repro import native
from repro.core.model import ProbabilisticCircuitModel
from repro.core.transform import transform_cnf
from repro.engine.executor import backward as engine_backward
from repro.engine.executor import forward as engine_forward
from repro.instances.registry import get_instance

#: Where the native-vs-NumPy comparison records its trajectory.
BENCH_NATIVE_JSON = Path(__file__).resolve().parent.parent / "BENCH_native.json"


@pytest.mark.benchmark(group="native")
def test_native_kernels_vs_numpy(benchmark):
    """Native vs NumPy on CNF eval and engine fwd+bwd."""
    if not native.native_available():
        pytest.skip(
            "the native C tier cannot be brought up on this host "
            "(no system C compiler) — native speedup gate skipped"
        )
    tier = native.active_tier("auto")
    compile_seconds = native.compile_seconds()
    entry = get_instance(HEADLINE_INSTANCE)
    formula = entry.build_cnf()
    batch = engine_bench_batch()
    rng = np.random.default_rng(0)

    # -- dominator 1: CNF clause loop (evaluate + unsat counts) --------------------------
    transform = transform_cnf(formula)
    inputs = rng.random((batch, len(transform.primary_inputs))) < 0.5
    free = None
    if transform.free_variables:
        free = rng.random((batch, len(transform.free_variables))) < 0.5
    candidates = transform.complete_assignments(inputs, free)
    formula.evaluation_plan()  # compile outside every timed region

    def cnf_numpy():
        formula.evaluate_batch(candidates, backend="compiled")
        formula.unsatisfied_clause_counts(candidates, backend="compiled")

    def cnf_native():
        formula.evaluate_batch(candidates, backend="native")
        formula.unsatisfied_clause_counts(candidates, backend="native")

    np.testing.assert_array_equal(
        formula.evaluate_batch(candidates, backend="native"),
        formula.evaluate_batch(candidates, backend="compiled"),
    )

    # -- dominator 2: engine slot executor (forward + backward) --------------------------
    model = ProbabilisticCircuitModel.from_transform(transform)
    program = model.program  # compile outside the timed region
    probabilities = rng.random((batch, model.num_inputs))
    seed_grad = np.ones((batch, model.num_outputs))
    state = {}

    def engine_step():
        _, state["cache"] = engine_forward(program, probabilities)
        engine_backward(program, state["cache"], seed_grad)

    def engine_numpy():
        with native.use_kernel("python"):
            engine_step()

    def engine_native():
        with native.use_kernel("native"):
            engine_step()

    passes, repeats = 5, 3
    cnf_numpy_seconds = time_passes(cnf_numpy, repeats, passes, reduce="best")
    cnf_native_seconds = time_passes(cnf_native, repeats, passes, reduce="best")
    engine_numpy_seconds = time_passes(engine_numpy, repeats, passes, reduce="best")
    engine_native_seconds = benchmark.pedantic(
        lambda: time_passes(engine_native, repeats, passes, reduce="best"), rounds=1, iterations=1
    )

    speedups = {
        "cnf_eval": cnf_numpy_seconds / cnf_native_seconds,
        "engine_fwd_bwd": engine_numpy_seconds / engine_native_seconds,
    }
    best_dominator = max(speedups, key=speedups.get)
    record = {
        "instance": entry.name,
        "tier": tier,
        "batch_size": batch,
        "passes_timed": passes,
        "compile_seconds": compile_seconds,
        "cnf_numpy_seconds": cnf_numpy_seconds,
        "cnf_native_seconds": cnf_native_seconds,
        "engine_numpy_seconds": engine_numpy_seconds,
        "engine_native_seconds": engine_native_seconds,
        "speedups": speedups,
        "best_dominator": best_dominator,
        "best_speedup": speedups[best_dominator],
    }
    benchmark.extra_info.update(record)
    BENCH_NATIVE_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(
        f"{entry.name} [{tier}]: cnf {speedups['cnf_eval']:.1f}x, "
        f"engine {speedups['engine_fwd_bwd']:.1f}x over NumPy "
        f"(compile {compile_seconds:.2f}s excluded from all timed loops)"
    )
    minimum = native_min_speedup()
    if minimum <= 0:
        pytest.skip(
            f"native speedup gate disabled (REPRO_BENCH_NATIVE_MIN_SPEEDUP="
            f"{minimum}); measured best {speedups[best_dominator]:.2f}x"
        )
    assert speedups[best_dominator] >= minimum, (
        f"native kernels must beat the NumPy path by at least {minimum}x on "
        f"one dominator, got best {best_dominator} = "
        f"{speedups[best_dominator]:.2f}x"
    )
