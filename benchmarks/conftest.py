"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index) at a CPU-friendly scale, prints the reproduced rows /
series, and records them in ``benchmark.extra_info`` so that the JSON output
of ``pytest benchmarks/ --benchmark-only --benchmark-json=...`` contains the
data as well.

Scale knobs (environment variables):

* ``REPRO_BENCH_FULL=1``  — run the full Table II instance list (all 14 rows)
  and the full figure-instance list instead of the fast defaults.
* ``REPRO_BENCH_TIMEOUT`` — per-sampler timeout in seconds (default 10).
* ``REPRO_BENCH_SOLUTIONS`` — unique-solution target per run (default 50).
* ``REPRO_BENCH_ENGINE_BATCH`` — batch size of the engine-vs-reference-
  interpreter comparison (default 256; the interpreter is the oracle under
  ``tests/oracles/``).
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import SamplerConfig

#: Fast-default representative instances: two per family (first of each pair is
#: also one of the paper's Fig. 3 / Fig. 4 ablation instances).
FAST_TABLE2_INSTANCES = [
    "or-50-10-7-UC-10",
    "or-100-20-8-UC-10",
    "75-10-1-q",
    "90-10-10-q",
    "s15850a_3_2",
    "s15850a_15_7",
    "Prod-8",
    "Prod-32",
]

#: The paper's four ablation instances (Fig. 3 and Fig. 4).
FIGURE_INSTANCES = ["or-100-20-8-UC-10", "90-10-10-q", "s15850a_15_7", "Prod-32"]


def bench_full() -> bool:
    """Whether the full-scale benchmark protocol was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_timeout() -> float:
    """Per-sampler timeout in seconds."""
    return float(os.environ.get("REPRO_BENCH_TIMEOUT", "10"))


def bench_solutions() -> int:
    """Unique-solution target per sampler run."""
    return int(os.environ.get("REPRO_BENCH_SOLUTIONS", "50"))


def engine_bench_batch() -> int:
    """Batch size used for the engine-vs-reference-interpreter comparison."""
    return int(os.environ.get("REPRO_BENCH_ENGINE_BATCH", "256"))


def engine_min_speedup() -> float:
    """Required engine-over-reference-interpreter speedup (lower it on noisy shared CI)."""
    return float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))


def cnf_bench_batch() -> int:
    """Batch size used for the CNF kernel-vs-clause-loop comparison."""
    return int(os.environ.get("REPRO_BENCH_CNF_BATCH", "256"))


def cnf_eval_min_speedup() -> float:
    """Required kernel-over-clause-loop speedup (lower it on noisy shared CI)."""
    return float(os.environ.get("REPRO_BENCH_CNF_MIN_SPEEDUP", "5.0"))


def transform_min_speedup() -> float:
    """Required fast-transform over reference-transform speedup on the
    headline cold-start instance (lower it on noisy shared CI; <= 0 skips the
    gate loudly while still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_TRANSFORM_MIN_SPEEDUP", "2.0"))


def workloads_min_speedup() -> float:
    """Required incremental-retransform over cold-transform speedup on the
    headline single-clause-delta workload (lower it on noisy shared CI; <= 0
    skips the gate loudly while still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_WORKLOADS_MIN_SPEEDUP", "3.0"))


def native_min_speedup() -> float:
    """Required native-over-NumPy speedup of the engine's forward + backward
    pass (lower it on noisy shared CI; <= 0 skips the gate loudly while
    still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_NATIVE_MIN_SPEEDUP", "2.0"))


@pytest.fixture(scope="session", autouse=True)
def warm_native_kernels():
    """Bring the native C tier up once, before any timed region.

    The C build is a one-time process cost; paying it inside a
    benchmark's first timed pass would corrupt that contender's numbers.  It
    is reported separately (``repro.native.compile_seconds``) where the
    cold-start accounting wants it.
    """
    from repro import native

    native.kernels_for(None)  # build the C tier, or silently none


def store_min_speedup() -> float:
    """Required store-warm-load over cold-build speedup on the headline
    cold-start instance (lower it on noisy shared CI; <= 0 skips the gate
    loudly while still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_STORE_MIN_SPEEDUP", "5.0"))


def obs_max_overhead() -> float:
    """Allowed fractional overhead of *disabled* telemetry on a sampler
    round, relative to the same round with every obs call stubbed out
    (default 3%; CI sets 5% for shared-runner noise; <= 0 skips the gate
    loudly while still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", "0.03"))


def serve_min_ratio() -> float:
    """Required warm-cache service / sequential-baseline unique-solutions/sec
    ratio (lower it on noisy shared CI)."""
    return float(os.environ.get("REPRO_BENCH_SERVE_MIN_RATIO", "2.0"))


def serve_bench_workers() -> int:
    """Worker-pool size of the serving benchmark's parallel rows."""
    return int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", "4"))


def resilience_min_ratio() -> float:
    """Required faulted-pool / fault-free-pool unique-solutions/sec ratio
    when one worker is killed mid-manifest (lower it on noisy shared CI;
    <= 0 skips the gate loudly while still recording the measurement)."""
    return float(os.environ.get("REPRO_BENCH_RESILIENCE_MIN_RATIO", "0.7"))


@pytest.fixture(scope="session")
def table2_instances():
    """Instance list for the Table II benchmark."""
    if bench_full():
        from repro.instances.registry import TABLE2_INSTANCES

        return list(TABLE2_INSTANCES)
    return list(FAST_TABLE2_INSTANCES)


@pytest.fixture(scope="session")
def figure_instances():
    """Instance list for the Fig. 2/3/4 benchmarks."""
    return list(FIGURE_INSTANCES)


@pytest.fixture(scope="session")
def largest_instance():
    """``(entry, formula)`` of the largest Table II instance as *generated*.

    The paper-reported sizes on the registry rows rank the original suite,
    not this reproduction's scaled-down generators, so every table2 entry is
    generated once (a few seconds, session-scoped) and the largest formula by
    actual variable count is kept along with its entry.
    """
    from repro.instances.registry import REGISTRY

    entries = [entry for entry in REGISTRY if "table2" in entry.tags] or list(REGISTRY)
    built = ((entry, entry.build_cnf()) for entry in entries)
    return max(built, key=lambda pair: pair[1].num_variables)


@pytest.fixture(scope="session")
def sampler_config():
    """The paper's hyper-parameters (lr=10, 5 iterations) at a CPU-friendly batch size."""
    return SamplerConfig.paper_defaults(batch_size=1024, seed=0, max_rounds=8)
