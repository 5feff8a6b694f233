"""Persistent artifact store: warm-load vs cold-build, and serve cold starts.

Two measurements, both on the largest Table II instance (``s15850a_3_2`` at
the fast scale), recorded into ``BENCH_store.json``:

* **round trip** — a cold :func:`~repro.serve.cache.build_artifact` (the
  Algorithm 1 transform + engine/plan compiles) against reading the same
  artifact back from disk, recorded in two parts: the hot load
  (:func:`~repro.store.load_sampling_artifact`, which decodes only the
  ``round`` entry) and the deferred decode (the first access to
  ``.transform``).  The gated speedup divides the build by their *sum*, so
  deferring work cannot pass the gate by itself; it must be at least
  ``REPRO_BENCH_STORE_MIN_SPEEDUP`` (default 5x) — that multiple is the
  whole point of persisting artifacts across processes.

* **serve cold-job latency** — the 8-job manifest of
  ``bench_serve_throughput`` through fresh service pools:

  - ``service_w1_cold_nostore``  — 1 worker, no store (today's best cold
    pass: the single worker compiles once, memory covers the rest);
  - ``service_wN_cold_nostore``  — N workers, no store (the w4-cold
    regression: spilled workers each recompile);
  - ``service_wN_cold_emptystore`` — N workers against an *empty* store
    (single-flight: exactly one cold build for the whole pool);
  - ``service_wN_cold_warmstore``  — N workers against the now-warm store
    (zero cold builds: every worker deserialises).

  The gate: the N-worker pool on an empty store must be measurably faster
  than the same pool without one (it skips N-1 redundant transforms), with
  exactly one cold build for the empty-store pass and zero for the warm
  one.  The cross-width ratio against ``service_w1_cold_nostore`` is
  recorded too — on multi-core hosts the store turns pool width from a
  cold-start liability into a pure win; on a single-core host the pool's
  own contention dominates and the ratio is reported, not gated.

Setting ``REPRO_BENCH_STORE_MIN_SPEEDUP`` <= 0 skips both gates loudly
while still recording every measurement.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import serve_bench_workers, store_min_speedup
from repro.core.config import SamplerConfig
from repro.obs.bench import median_seconds, timed
from repro.serve import SamplingService
from repro.serve.cache import build_artifact
from repro.store import ArtifactStore, load_sampling_artifact, persist_artifact

#: Where the store benchmark records its trajectory.
BENCH_STORE_JSON = Path(__file__).resolve().parent.parent / "BENCH_store.json"

NUM_JOBS = 8
NUM_SOLUTIONS = 200
BATCH_SIZE = 256

#: Warm loads are fast enough to repeat; the median defeats page-cache noise.
LOAD_REPEATS = 3


def _manifest_configs():
    return [
        SamplerConfig.paper_defaults(batch_size=BATCH_SIZE, seed=seed, max_rounds=8)
        for seed in range(NUM_JOBS)
    ]


def _run_cold_pool(formula_path: str, num_workers: int, store_dir) -> dict:
    """One manifest pass through a *fresh* pool (cold caches by construction)."""
    configs = _manifest_configs()
    with SamplingService(num_workers=num_workers, store_dir=store_dir) as service:
        with timed() as timer:
            job_ids = [
                service.submit(formula_path, num_solutions=NUM_SOLUTIONS, config=config)
                for config in configs
            ]
            results = [service.result(job_id, timeout=600) for job_id in job_ids]
        seconds = timer.seconds
    assert all(result.status == "done" for result in results)
    return {
        "seconds": seconds,
        "jobs": len(results),
        "jobs_per_second": len(results) / seconds,
        "unique_solutions": int(sum(result.num_unique for result in results)),
        "cold_builds": sum(result.summary.get("cold_builds", 0) for result in results),
        "store_hits": sum(result.summary.get("store_hits", 0) for result in results),
        "store_load_seconds": sum(
            result.summary.get("store_load_seconds", 0.0) for result in results
        ),
    }


@pytest.mark.benchmark(group="store")
def test_store_cold_vs_warm(benchmark, largest_instance, tmp_path):
    """Warm store loads must beat cold builds by the configured multiple."""
    from repro.cnf.dimacs import write_dimacs_file

    entry, formula = largest_instance
    formula_path = str(tmp_path / f"{entry.name}.cnf")
    write_dimacs_file(formula, formula_path)
    workers = serve_bench_workers()
    minimum = store_min_speedup()

    # --- round trip: cold build vs store load --------------------------------
    store = ArtifactStore(tmp_path / "store")
    with timed() as build_timer:
        artifact = build_artifact(formula)
    build_seconds = build_timer.seconds
    assert persist_artifact(store, artifact)

    hot_times = []
    decode_times = []
    for _ in range(LOAD_REPEATS):
        reader = ArtifactStore(tmp_path / "store")  # a fresh handle per load
        with timed() as hot_timer:
            loaded = load_sampling_artifact(reader, artifact.signature)
        assert loaded is not None and loaded.source == "store"
        assert reader.counters()["transform_decodes"] == 0
        with timed() as decode_timer:
            loaded.transform
        assert reader.counters()["transform_decodes"] == 1
        hot_times.append(hot_timer.seconds)
        decode_times.append(decode_timer.seconds)
    hot_load_seconds = median_seconds(hot_times)
    deferred_decode_seconds = median_seconds(decode_times)
    load_seconds = hot_load_seconds + deferred_decode_seconds
    speedup = build_seconds / load_seconds
    roundtrip = {
        "build_seconds": build_seconds,
        "hot_load_seconds": hot_load_seconds,
        "deferred_decode_seconds": deferred_decode_seconds,
        "load_seconds": load_seconds,
        "speedup": speedup,
        "entries": {
            info.kind: info.nbytes for info in ArtifactStore(tmp_path / "store").entries()
        },
        "min_speedup": minimum,
    }

    # --- serve cold-start latency with and without the store -----------------
    benchmark.pedantic(
        lambda: _run_cold_pool(formula_path, 1, False), rounds=1, iterations=1
    )
    modes = {
        "service_w1_cold_nostore": _run_cold_pool(formula_path, 1, False),
        f"service_w{workers}_cold_nostore": _run_cold_pool(
            formula_path, workers, False
        ),
        f"service_w{workers}_cold_emptystore": _run_cold_pool(
            formula_path, workers, tmp_path / "serve-store"
        ),
        f"service_w{workers}_cold_warmstore": _run_cold_pool(
            formula_path, workers, tmp_path / "serve-store"
        ),
    }

    gate_skipped = None
    if minimum <= 0:
        gate_skipped = (
            f"floor disabled via REPRO_BENCH_STORE_MIN_SPEEDUP={minimum} "
            "(measurements still recorded)"
        )
    empty = modes[f"service_w{workers}_cold_emptystore"]
    warm = modes[f"service_w{workers}_cold_warmstore"]
    nostore = modes[f"service_w{workers}_cold_nostore"]
    w1_baseline = modes["service_w1_cold_nostore"]
    record = {
        "instance": entry.name,
        "variables": formula.num_variables,
        "clauses": formula.num_clauses,
        "num_jobs": NUM_JOBS,
        "num_solutions_per_job": NUM_SOLUTIONS,
        "batch_size": BATCH_SIZE,
        "workers": workers,
        "roundtrip": roundtrip,
        "serve": modes,
        # Same-width win: what the store removes from a cold wide pool.
        "ratio_wN_store_vs_wN_nostore": nostore["seconds"] / empty["seconds"],
        # Cross-width ratio (> 1 expected on multi-core hosts; informational
        # on single-core hosts where pool contention dominates).
        "ratio_w1_nostore_vs_wN_store": w1_baseline["seconds"] / empty["seconds"],
    }
    if gate_skipped is not None:
        record["no_regression_gate_skipped"] = gate_skipped
    benchmark.extra_info.update(record)
    BENCH_STORE_JSON.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"roundtrip on {entry.name}: build {build_seconds:.3f} s, "
        f"store load {hot_load_seconds:.3f} s + deferred decode "
        f"{deferred_decode_seconds:.3f} s -> {speedup:.2f}x"
    )
    for name, mode in modes.items():
        print(
            f"{name:>28}: {mode['seconds']:.2f} s, "
            f"{mode['cold_builds']} cold builds, {mode['store_hits']} store hits"
        )
    if gate_skipped is not None:
        # Never let the gate silently check nothing.
        print(f"WARNING: no-regression gate SKIPPED — {gate_skipped}")
        return

    assert speedup >= minimum, (
        f"a warm store load must be at least {minimum}x faster than a cold "
        f"build on {entry.name}, got {speedup:.2f}x "
        f"({build_seconds:.3f} s vs {load_seconds:.3f} s)"
    )
    assert empty["cold_builds"] == 1, (
        f"single-flight must collapse the pool's cold builds to one, "
        f"got {empty['cold_builds']}"
    )
    assert warm["cold_builds"] == 0, (
        f"a warm store must satisfy every worker without compiling, "
        f"got {warm['cold_builds']} cold builds"
    )
    assert empty["seconds"] < nostore["seconds"], (
        f"the {workers}-worker pool on an empty store must beat the same "
        f"pool without one, got {empty['seconds']:.2f} s vs "
        f"{nostore['seconds']:.2f} s"
    )
