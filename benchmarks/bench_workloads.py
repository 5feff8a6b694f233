"""Workload benchmark: incremental retransform vs a cold transform.

The tasked-sampling layer (PR 7) lets a client mutate a formula by a clause
delta and re-derive the sampling artifact from the warm parent instead of
re-running Algorithm 1 from scratch.  This benchmark measures that claim on
the headline ISCAS instance: apply a single-clause delta (one unit
assumption) to ``s15850a_3_2`` and time

* the **cold path**: ``transform_cnf`` of the mutated formula with every
  process-level memo dropped first (what a delta-unaware service pays);
* the **incremental path**: ``retransform(prev, delta)`` from the warm
  parent's recorded stream checkpoints (what ``repro.serve`` pays when the
  parent artifact is cached).

Both paths are verified record-identical before any timing is trusted, and
the end-to-end serve numbers — cold artifact build vs incremental artifact
derivation (``build_incremental_artifact``) — are recorded alongside.  The
record is rewritten to ``BENCH_workloads.json``; committing the file each
PR accumulates the incremental-path trajectory in version history.

Environment:

* ``REPRO_BENCH_WORKLOADS_MIN_SPEEDUP`` — no-regression floor on the
  retransform-vs-cold speedup (default 3.0; set <= 0 to skip the gate
  loudly while still recording the measurement).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import workloads_min_speedup
from repro.cnf import ClauseDelta
from repro.core.solutions import SolutionSet
from repro.core.transform import retransform, transform_cnf
from repro.instances.registry import get_instance
from repro.obs.bench import time_passes, timed
from repro.serve import build_artifact, build_incremental_artifact

#: Where the workload comparison records its trajectory.
BENCH_WORKLOADS_JSON = Path(__file__).resolve().parent.parent / "BENCH_workloads.json"

HEADLINE_INSTANCE = "s15850a_3_2"

#: The measured deltas: a late unit assumption (the common incremental-job
#: shape: "same instance, one more constraint") and a small append+assume mix.
DELTAS = {
    "assume_one": ClauseDelta(assume=(7,)),
    "append_and_assume": ClauseDelta(add=((3, -11, 42),), assume=(-5,)),
}


def _cold(fn):
    """Run ``fn`` with every process-level transform memo dropped first."""
    import repro

    repro.clear_caches()  # also clears the transform/boolalg memos
    return fn()


def _best_of_cold(fn, repeats: int = 3) -> float:
    return time_passes(lambda: _cold(fn), repeats=repeats, reduce="best")


def _best_of_warm(fn, repeats: int = 3) -> float:
    """Timed without clearing memos: the incremental path *is* the warm path."""
    return time_passes(fn, repeats=repeats, reduce="best")


def _assert_records_identical(fast, cold) -> None:
    assert fast.num_variables == cold.num_variables
    assert fast.definitions == cold.definitions
    assert fast.primary_inputs == cold.primary_inputs
    assert fast.intermediate_variables == cold.intermediate_variables
    assert fast.primary_outputs == cold.primary_outputs
    assert fast.constraints == cold.constraints
    assert fast.free_variables == cold.free_variables


@pytest.mark.benchmark(group="workloads")
def test_incremental_retransform_speedup(benchmark):
    """Single-clause-delta retransform must beat a cold transform by the floor."""
    formula = get_instance(HEADLINE_INSTANCE).build_cnf()
    prev = transform_cnf(formula)

    deltas = {}
    for name, delta in DELTAS.items():
        mutated = formula.with_delta(delta)
        incremental = retransform(prev, delta)
        cold = _cold(lambda m=mutated: transform_cnf(m))
        _assert_records_identical(incremental, cold)
        deltas[name] = {
            "added_clauses": len(delta.add) + len(delta.assume),
            "retracted_clauses": len(delta.retract),
            "cold_seconds": _best_of_cold(lambda m=mutated: transform_cnf(m)),
            "incremental_seconds": _best_of_warm(
                lambda d=delta: retransform(prev, d)
            ),
        }
        deltas[name]["speedup"] = (
            deltas[name]["cold_seconds"] / deltas[name]["incremental_seconds"]
        )

    # End-to-end artifact path: cold build vs incremental derivation.
    headline_delta = DELTAS["assume_one"]
    parent = build_artifact(formula)
    with timed() as derive_timer:
        derived = build_incremental_artifact(parent, headline_delta)
    incremental_artifact_seconds = derive_timer.seconds
    effective = formula.with_delta(headline_delta)
    cold_artifact_seconds = _best_of_cold(
        lambda: build_artifact(effective), repeats=1
    )
    assert derived.incremental and derived.parent_signature == parent.signature

    # Projected-dedup overhead: the extra cost of keying the solution pool
    # on a projected column subset instead of the full row.
    rng = np.random.default_rng(0)
    pool = rng.random((4096, formula.num_variables)) < 0.5
    columns = list(range(0, formula.num_variables, 4))

    def _dedup(project):
        solutions = SolutionSet(formula.num_variables, project=project)
        solutions.add_batch(pool)
        return solutions

    full_dedup_seconds = _best_of_warm(lambda: _dedup(None))
    projected_dedup_seconds = _best_of_warm(lambda: _dedup(columns))
    dedup_record = {
        "pool_rows": int(pool.shape[0]),
        "projected_columns": len(columns),
        "full_seconds": full_dedup_seconds,
        "projected_seconds": projected_dedup_seconds,
        "overhead_ratio": (
            projected_dedup_seconds / full_dedup_seconds
            if full_dedup_seconds > 0
            else float("inf")
        ),
    }

    headline = deltas["assume_one"]
    speedup = benchmark.pedantic(lambda: headline["speedup"], rounds=1, iterations=1)

    minimum = workloads_min_speedup()
    gate_skipped = None
    if minimum <= 0:
        gate_skipped = (
            f"floor disabled via REPRO_BENCH_WORKLOADS_MIN_SPEEDUP={minimum} "
            "(measurement still recorded)"
        )
    record = {
        "headline_instance": HEADLINE_INSTANCE,
        "headline_delta": "assume_one",
        "speedup": speedup,
        "min_speedup": minimum,
        "deltas": deltas,
        "artifact_path": {
            "cold_build_seconds": cold_artifact_seconds,
            "incremental_derivation_seconds": incremental_artifact_seconds,
            "speedup": (
                cold_artifact_seconds / incremental_artifact_seconds
                if incremental_artifact_seconds > 0
                else float("inf")
            ),
        },
        "projected_dedup": dedup_record,
        "records_identical": True,
    }
    if gate_skipped is not None:
        record["no_regression_gate_skipped"] = gate_skipped
    benchmark.extra_info.update(record)
    BENCH_WORKLOADS_JSON.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for name, row in deltas.items():
        print(
            f"{name:>18}: cold {row['cold_seconds']*1000:7.1f} ms vs incremental "
            f"{row['incremental_seconds']*1000:7.1f} ms ({row['speedup']:.2f}x)"
        )
    artifact = record["artifact_path"]
    print(
        f"  artifact: cold build {artifact['cold_build_seconds']*1000:.1f} ms vs "
        f"incremental derivation "
        f"{artifact['incremental_derivation_seconds']*1000:.1f} ms "
        f"({artifact['speedup']:.1f}x)"
    )
    if gate_skipped is not None:
        # Never let the gate silently check nothing.
        print(f"WARNING: no-regression gate SKIPPED — {gate_skipped}")
        return
    assert speedup >= minimum, (
        f"the incremental retransform must be at least {minimum}x faster than "
        f"a cold transform on {HEADLINE_INSTANCE}, got {speedup:.2f}x"
    )
