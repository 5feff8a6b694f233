"""Float dtype policy × batch-size throughput matrix on the largest instance.

Times the engine's fused forward+backward pass — the same protocol as the
engine-vs-reference-interpreter benchmark — under both dtype policies (spec ``numpy``,
the ``float64`` reference, and ``numpy:float32``, the throughput policy:
the inputs are cast to the spec's dtype and the engine follows it) over a
batch-size grid, and rewrites ``BENCH_backend.json``.  Committing the file
each PR accumulates the matrix's trajectory in version history.

The ``numpy`` row doubles as a no-regression gate: at the engine
benchmark's batch size it must stay within a few percent of the throughput
recorded in ``BENCH_engine.json`` (refresh that file in the same run — CI
does — so the comparison never crosses machines).  Lower the bar on noisy
shared runners with ``REPRO_BENCH_BACKEND_MIN_RATIO``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.obs.bench import time_passes
from benchmarks.conftest import engine_bench_batch
from repro.core.config import array_dtype
from repro.core.model import ProbabilisticCircuitModel
from repro.core.transform import transform_cnf
from repro.engine.executor import backward as engine_backward
from repro.engine.executor import forward as engine_forward

#: Where the backend × batch matrix records its trajectory.
BENCH_BACKEND_JSON = Path(__file__).resolve().parent.parent / "BENCH_backend.json"

#: The engine benchmark's record (same machine when run in the same session).
BENCH_ENGINE_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def backend_batch_grid():
    """Batch sizes of the matrix (env override: comma-separated list)."""
    raw = os.environ.get("REPRO_BENCH_BACKEND_BATCHES", "64,256,1024")
    return [int(token) for token in raw.split(",") if token]


def backend_min_ratio() -> float:
    """Required ``numpy``-spec / BENCH_engine throughput ratio (default 5% slack)."""
    return float(os.environ.get("REPRO_BENCH_BACKEND_MIN_RATIO", "0.95"))


#: Array-backend specs (dtype policies) the matrix covers.
SPECS = ("numpy", "numpy:float32")


@pytest.mark.benchmark(group="backend-matrix")
def test_backend_matrix(benchmark, largest_instance):
    """Fused forward+backward throughput for every dtype policy × batch size."""
    entry, formula = largest_instance
    transform = transform_cnf(formula)
    model = ProbabilisticCircuitModel.from_transform(transform)
    program = model.program  # compile outside the timed region
    # Best-of-5 (vs the engine benchmark's best-of-3): the no-regression
    # ratio compares two measurements of nearly identical code, so it is
    # dominated by run-to-run noise on shared hosts; more repeats tighten it.
    passes, repeats = 5, 5
    rng = np.random.default_rng(0)

    def run_grid():
        rows = []
        for spec in SPECS:
            dtype = array_dtype(spec)
            for batch in backend_batch_grid():
                probabilities = rng.random((batch, model.num_inputs)).astype(dtype)
                seed_grad = np.ones((batch, model.num_outputs), dtype=dtype)
                state = {}

                def step():
                    _, state["cache"] = engine_forward(program, probabilities)
                    engine_backward(program, state["cache"], seed_grad)

                seconds = time_passes(step, repeats, passes, reduce="best")
                rows.append(
                    {
                        "backend": spec,
                        "batch_size": batch,
                        "seconds": seconds,
                        "passes_per_second": passes / seconds,
                    }
                )
        return rows

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    record = {
        "instance": entry.name,
        "variables": formula.num_variables,
        "clauses": formula.num_clauses,
        "compiled_ops": program.num_ops,
        "passes_timed": passes,
        "backends": list(SPECS),
        "grid": grid,
    }

    # No-regression gate: the ``numpy`` spec at the engine benchmark's batch
    # size vs the (same-session) BENCH_engine.json record.
    reference_batch = engine_bench_batch()
    numpy_row = next(
        (
            row
            for row in grid
            if row["backend"] == "numpy" and row["batch_size"] == reference_batch
        ),
        None,
    )
    gate_skipped = None
    if numpy_row is None:
        gate_skipped = (
            f"no numpy row at batch {reference_batch} "
            f"(REPRO_BENCH_BACKEND_BATCHES={backend_batch_grid()})"
        )
    elif not BENCH_ENGINE_JSON.exists():
        gate_skipped = f"{BENCH_ENGINE_JSON.name} missing (run the engine benchmark first)"
    else:
        engine_record = json.loads(BENCH_ENGINE_JSON.read_text())
        if engine_record.get("batch_size") != reference_batch:
            gate_skipped = (
                f"{BENCH_ENGINE_JSON.name} was recorded at batch "
                f"{engine_record.get('batch_size')}, not {reference_batch}"
            )
        else:
            reference = engine_record["engine_passes_per_second"]
            ratio = numpy_row["passes_per_second"] / reference
            record["engine_reference_passes_per_second"] = reference
            record["numpy_vs_engine_ratio"] = ratio
    if gate_skipped is not None:
        record["no_regression_gate_skipped"] = gate_skipped

    benchmark.extra_info.update(record)
    BENCH_BACKEND_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for row in grid:
        print(
            f"{entry.name}: {row['backend']:<15} batch {row['batch_size']:>5} "
            f"{row['passes_per_second']:>8.1f} passes/s"
        )
    if gate_skipped is not None:
        # Never let the gate silently check nothing.
        print(f"WARNING: no-regression gate SKIPPED — {gate_skipped}")
    else:
        ratio = record["numpy_vs_engine_ratio"]
        minimum = backend_min_ratio()
        print(f"numpy spec vs BENCH_engine reference: {ratio:.3f}x (floor {minimum})")
        assert ratio >= minimum, (
            f"the float64 policy must not cost more than {1 - minimum:.0%} "
            f"engine throughput, got ratio {ratio:.3f}"
        )
