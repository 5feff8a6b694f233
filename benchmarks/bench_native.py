"""The native engine kernels vs the engine's NumPy paths.

The ``repro.native`` C tier compiles the loop profiling shows dominates
engine wall-clock once everything NumPy can vectorise is vectorised: the
executor's per-block slot loops (forward + backward).  This benchmark times
that loop on the headline instance with the C tier up and with the NumPy
tier forced (the tier probe reports the C tier unavailable, as on a host
without a compiler), prints the speedup, and rewrites ``BENCH_native.json``
with the record — committing the file each PR accumulates the tier's perf
trajectory in version history.

All timed loops run *warm*: the one-time C build cost is paid by the
session-scoped ``warm_native_kernels`` fixture (see ``conftest.py``) and
reported separately in the record as ``compile_seconds``.

The gate asserts the engine fwd+bwd speedup against
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
from tests.conftest import force_numpy_tier

#: Where the native-vs-NumPy comparison records its trajectory.
BENCH_NATIVE_JSON = Path(__file__).resolve().parent.parent / "BENCH_native.json"


@pytest.mark.benchmark(group="native")
def test_native_kernels_vs_numpy(benchmark, monkeypatch):
    """Native vs NumPy on the engine's forward + backward pass."""
    if not native.native_available():
        pytest.skip(
            "the native C tier cannot be brought up on this host "
            "(no system C compiler, or REPRO_NATIVE=off) — native speedup "
            "gate skipped"
        )
    tier = native.active_tier()
    compile_seconds = native.compile_seconds()
    entry = get_instance(HEADLINE_INSTANCE)
    formula = entry.build_cnf()
    batch = engine_bench_batch()
    rng = np.random.default_rng(0)

    transform = transform_cnf(formula)
    model = ProbabilisticCircuitModel.from_transform(transform)
    program = model.program  # compile outside the timed region
    probabilities = rng.random((batch, model.num_inputs))
    seed_grad = np.ones((batch, model.num_outputs))
    state = {}

    def engine_step():
        _, state["cache"] = engine_forward(program, probabilities)
        engine_backward(program, state["cache"], seed_grad)

    passes, repeats = 5, 3
    engine_native_seconds = benchmark.pedantic(
        lambda: time_passes(engine_step, repeats, passes, reduce="best"),
        rounds=1,
        iterations=1,
    )
    with monkeypatch.context() as patch:
        force_numpy_tier(patch)
        engine_numpy_seconds = time_passes(engine_step, repeats, passes, reduce="best")

    speedup = engine_numpy_seconds / engine_native_seconds
    record = {
        "instance": entry.name,
        "tier": tier,
        "batch_size": batch,
        "passes_timed": passes,
        "compile_seconds": compile_seconds,
        "engine_numpy_seconds": engine_numpy_seconds,
        "engine_native_seconds": engine_native_seconds,
        "engine_fwd_bwd_speedup": speedup,
    }
    benchmark.extra_info.update(record)
    BENCH_NATIVE_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(
        f"{entry.name} [{tier}]: engine fwd+bwd {speedup:.1f}x over NumPy "
        f"(compile {compile_seconds:.2f}s excluded from all timed loops)"
    )
    minimum = native_min_speedup()
    if minimum <= 0:
        pytest.skip(
            f"native speedup gate disabled (REPRO_BENCH_NATIVE_MIN_SPEEDUP="
            f"{minimum}); measured {speedup:.2f}x"
        )
    assert speedup >= minimum, (
        f"native engine kernels must beat the NumPy path by at least "
        f"{minimum}x on fwd+bwd, got {speedup:.2f}x"
    )
