"""Resilience cost: manifest throughput with a mid-run worker kill.

The acceptance bar of the fault-tolerance subsystem: running the serving
manifest on a 2-worker pool while one worker is SIGKILLed mid-run (via a
seeded :mod:`repro.faults` plan) must deliver at least
``REPRO_BENCH_RESILIENCE_MIN_RATIO`` (default 0.7) of the fault-free pool's
aggregate unique-solutions/sec — i.e. a worker death costs at most ~30%
throughput, not a hung or failed manifest.

Both passes run against a pre-primed persistent artifact store, because
that is the designed recovery path: the respawned worker re-primes its
cache from the store instead of recompiling, so what the faulted pass pays
is the kill, the respawn backoff, the store load and the deterministic
replay of the dead worker's in-flight tasks.

The grid rewrites ``BENCH_resilience.json`` each run.  It times
``PAIRS`` pairs of passes:

* ``clean``   — the 8-job manifest on a fresh 2-worker pool (store-warm);
* ``faulted`` — the identical manifest and pool, with worker 1's original
  incarnation killed as it dequeues its 2nd task.

Which pass runs first alternates from pair to pair, and the gate reads the
*median* faulted/clean ratio.  A single clean-then-faulted shot measured
the first pass's start-up cost (larger than the kill's) as much as the
kill, and read anywhere from 1.07x to 1.65x on a 2-CPU host.

Before any timing is trusted every faulted pass must report every job
``done`` with per-job unique counts identical to the clean passes (seed
determinism + exact dedup make the replay bitwise-equivalent), and at
least one task must actually have been requeued — a benchmark where the
fault never fired measures nothing.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from benchmarks.conftest import resilience_min_ratio
from repro.core.config import SamplerConfig
from repro.obs.bench import timed
from repro.serve import SamplingService

#: Where the resilience grid records its trajectory.
BENCH_RESILIENCE_JSON = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

NUM_JOBS = 8
NUM_SOLUTIONS = 200
BATCH_SIZE = 256
WORKERS = 2
#: Clean/faulted pairs; even, so each pass runs first equally often.
PAIRS = 4

#: Kill worker 1's original process as it dequeues its 2nd task; the
#: respawned incarnation no longer matches, so the replay completes.
FAULT_SPEC = "seed=7;kill:at=2,worker=1,incarnation=0"


def _manifest_configs():
    return [
        SamplerConfig.paper_defaults(batch_size=BATCH_SIZE, seed=seed, max_rounds=8)
        for seed in range(NUM_JOBS)
    ]


def _run_pool_pass(formula_path: str, configs, store_dir, faults=None) -> dict:
    with SamplingService(
        num_workers=WORKERS, store_dir=store_dir, faults=faults
    ) as service:
        with timed() as timer:
            job_ids = [
                service.submit(
                    formula_path,
                    num_solutions=NUM_SOLUTIONS,
                    config=config,
                    coalesce=False,
                )
                for config in configs
            ]
            results = [service.result(job_id, timeout=600) for job_id in job_ids]
    assert all(result.status == "done" for result in results), (
        [result.status for result in results]
    )
    unique_counts = [result.num_unique for result in results]
    retries = sum(result.summary["retries"] for result in results)
    seconds = timer.seconds
    return {
        "seconds": seconds,
        "jobs": len(results),
        "jobs_per_second": len(results) / seconds,
        "unique_counts": unique_counts,
        "unique_solutions": int(sum(unique_counts)),
        "unique_per_second": sum(unique_counts) / seconds,
        "tasks_requeued": retries,
    }


@pytest.mark.benchmark(group="resilience")
def test_resilience_throughput(benchmark, largest_instance, tmp_path):
    """Fault-free pool vs the same pool with one worker killed mid-run."""
    from repro.cnf.dimacs import write_dimacs_file

    entry, formula = largest_instance
    formula_path = str(tmp_path / f"{entry.name}.cnf")
    write_dimacs_file(formula, formula_path)
    configs = _manifest_configs()
    store_dir = tmp_path / "store"

    # Prime the store once (inline, untimed) so both pools — and crucially
    # the faulted pool's respawned worker — load artifacts instead of
    # compiling; compile time would otherwise swamp the quantity measured.
    with SamplingService(num_workers=0, store_dir=store_dir) as service:
        warm = service.submit(formula_path, num_solutions=8, config=configs[0])
        assert service.result(warm).status == "done"

    def run_pairs():
        pairs = []
        for index in range(PAIRS):
            order = ("clean", "faulted") if index % 2 == 0 else ("faulted", "clean")
            passes = {
                mode: _run_pool_pass(
                    formula_path, configs, store_dir,
                    faults=FAULT_SPEC if mode == "faulted" else None,
                )
                for mode in order
            }
            pairs.append({"first": order[0], **passes})
        return pairs

    pairs = benchmark.pedantic(run_pairs, rounds=1, iterations=1)

    # In every pair the kill must actually have happened and the replay
    # must be exact.
    for pair in pairs:
        clean, faulted = pair["clean"], pair["faulted"]
        assert faulted["tasks_requeued"] >= 1, (
            "the injected worker kill never fired — the benchmark measured nothing"
        )
        assert faulted["unique_counts"] == clean["unique_counts"], (
            "replayed jobs diverged from the fault-free run"
        )
        pair["ratio"] = faulted["unique_per_second"] / clean["unique_per_second"]

    ratio = statistics.median(pair["ratio"] for pair in pairs)
    minimum = resilience_min_ratio()
    gate_skipped = None
    if minimum <= 0:
        gate_skipped = (
            f"floor disabled via REPRO_BENCH_RESILIENCE_MIN_RATIO={minimum} "
            "(measurement still recorded)"
        )
    record = {
        "instance": entry.name,
        "variables": formula.num_variables,
        "clauses": formula.num_clauses,
        "num_jobs": NUM_JOBS,
        "num_solutions_per_job": NUM_SOLUTIONS,
        "batch_size": BATCH_SIZE,
        "workers": WORKERS,
        "fault_spec": FAULT_SPEC,
        "pairs": pairs,
        "ratio_statistic": f"median of {PAIRS} pairs, first pass alternating",
        "ratio_faulted_vs_clean": ratio,
        "min_ratio": minimum,
    }
    if gate_skipped is not None:
        record["no_regression_gate_skipped"] = gate_skipped
    benchmark.extra_info.update(record)
    BENCH_RESILIENCE_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for index, pair in enumerate(pairs):
        for name in ("clean", "faulted"):
            mode = pair[name]
            print(
                f"pair {index} {name:>8}{' (first)' if pair['first'] == name else '':8}: "
                f"{mode['jobs_per_second']:.2f} jobs/s, "
                f"{mode['unique_per_second']:,.0f} unique solutions/s "
                f"({mode['seconds']:.2f} s, {mode['tasks_requeued']} task(s) requeued)"
            )
        print(f"pair {index} faulted/clean: {pair['ratio']:.2f}x")
    print(
        f"faulted pool vs fault-free pool: median {ratio:.2f}x over {PAIRS} pairs "
        f"(floor {minimum}x)"
    )
    if gate_skipped is not None:
        # Never let the gate silently check nothing.
        print(f"WARNING: no-regression gate SKIPPED — {gate_skipped}")
        return
    assert ratio >= minimum, (
        f"a single mid-run worker kill must cost at most "
        f"{1 - minimum:.0%} throughput (floor {minimum}x), got {ratio:.2f}x"
    )
