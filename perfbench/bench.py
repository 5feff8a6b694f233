"""One benchmark run: one workload, one seed, one measured window.

With ``trace=False`` the run reports the end-to-end metrics; with
``trace=True`` it reports the per-layer ledger (:mod:`perfbench.ledger`).
Every run re-checks every returned row with :mod:`perfbench.checker` after
the measured window.

Against run-to-run noise on a small shared host:

* timing metrics are reported at nominal host speed: each job's times are
  scaled by a reference kernel sampled right after it, outside its clock
  (:mod:`perfbench.hostspeed`); the raw values are in the record;
* many homogeneous jobs per run, and never fewer than the 100 a p90 needs
  (the job count is in the record);
* set-up is repeated ``SETUP_REPEATS`` times from cleared caches and
  reported as the median; the native kernel build and the store fill happen
  before it is timed and are recorded on their own;
* one client process plus at most one worker process per spare core, each
  pinned to its own core;
* returned rows wait for the check in a file, so the client's memory does
  not grow with the number of jobs a run completes.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from perfbench import ledger
from perfbench.checker import OutputDigest, count_duplicate_rows
from perfbench.hostspeed import NOMINAL_REFERENCE_MS, HostSpeed
from perfbench.provenance import provenance
from perfbench.workloads import WARM_INSTANCE, WORKLOADS, Workload, instance_file

#: Set-up repetitions of an end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: An end-to-end run measures at least this many jobs, so that ten of them
#: lie beyond the p90 it reports.
P90_MIN_JOBS = 100
#: The first jobs of a run, which depend only on the seed: their solution
#: sets make the output digest and their counts ``unique_per_candidate``.
DIGEST_JOBS = P90_MIN_JOBS
#: Untraced/traced block pairs of an inline ledger run, alternated so host
#: drift hits both sides alike.  A pool's worker keeps tracing on once a
#: traced task reached it, so a pool runs one untraced block, then one
#: traced block.
INLINE_LEDGER_BLOCKS = 4
TIER_KEYS = ("memory_hits", "store_hits", "cold_builds")


@dataclass
class JobRecord:
    index: int
    check: object
    job_id: Optional[str] = None
    error: Optional[str] = None
    status: str = "raised"
    #: submit -> result(), submit -> first stream() rows, the submit call.
    wall_s: float = 0.0
    first_rows_s: float = 0.0
    submit_s: float = 0.0
    #: Wall-clock time when submit returned (matches span ``start_unix``).
    submitted_unix: float = 0.0
    unique: int = 0
    generated: int = 0
    valid: int = 0
    rounds: int = 0
    busy_s: float = 0.0
    tiers: Dict[str, int] = field(default_factory=dict)
    #: The loop's time from the previous completion to this one, less the
    #: benchmark's own work: completions split the loop's wall time.
    since_previous_s: float = 0.0
    #: The host-speed reference kernel's time, sampled right after the job.
    reference_s: float = 0.0
    #: Where the returned rows sit in the spool, and their shape.
    spool_offset: int = 0
    shape: Optional[Tuple[int, int]] = None


@dataclass
class _Flight:
    record: JobRecord
    start: float
    stream: object = None
    first_seen: bool = False


def closed_loop(
    service,
    workload: Workload,
    indices: Iterator[int],
    seconds: float,
    on_done: Callable[[JobRecord, object], None],
    min_jobs: int = 0,
) -> Tuple[float, float]:
    """Keep ``workload.in_flight`` jobs outstanding for ``seconds``, and
    until at least ``min_jobs`` jobs were submitted.

    Returns the wall and CPU seconds until the last job completed, less
    those spent in ``on_done``; each job's share of that wall time is its
    ``since_previous_s``.  Each job is timed from submit to
    ``result()``; its first rows are taken from ``stream()`` as soon as it
    is the oldest job, before the next submit, so a pool's client never
    holds back the rows of the job its worker is running.  ``on_done`` runs
    before the next submit, so the benchmark's own work on a finished job
    lies outside the next job's clock.
    """
    pending = deque()
    submitted = 0
    aside_wall = aside_cpu = 0.0
    start_cpu = time.process_time()
    start = time.perf_counter()

    def submit() -> None:
        nonlocal submitted
        submitted += 1
        index = next(indices)
        job = workload.job(index)
        record = JobRecord(index=index, check=job.check)
        flight = _Flight(record, time.perf_counter())
        try:
            record.job_id = service.submit(
                job.source,
                num_solutions=workload.num_solutions,
                config=workload.config(job.seed),
            )
            flight.stream = service.stream(record.job_id)
        except Exception as error:  # a failed job is counted, not fatal
            record.error = f"submit: {type(error).__name__}: {error}"
        record.submit_s = time.perf_counter() - flight.start
        record.submitted_unix = time.time()
        pending.append(flight)

    def first_rows(flight: _Flight) -> None:
        if flight.stream is None or flight.first_seen:
            return
        flight.first_seen = True
        try:
            next(flight.stream, None)
        except Exception as error:
            flight.record.error = f"stream: {type(error).__name__}: {error}"
            flight.stream = None
        flight.record.first_rows_s = time.perf_counter() - flight.start

    def finish(flight: _Flight):
        record = flight.record
        if flight.stream is None:
            record.wall_s = time.perf_counter() - flight.start
            return None
        try:
            for _ in flight.stream:
                pass
            result = service.result(record.job_id)
            record.wall_s = time.perf_counter() - flight.start
            service.forget(record.job_id)
            return result
        except Exception as error:
            record.error = f"result: {type(error).__name__}: {error}"
            record.wall_s = time.perf_counter() - flight.start
            return None

    while len(pending) < workload.in_flight:
        submit()
    previous = start
    while pending:
        flight = pending.popleft()
        first_rows(flight)
        result = finish(flight)
        if pending:
            first_rows(pending[0])
        aside_start, aside_start_cpu = time.perf_counter(), time.process_time()
        flight.record.since_previous_s = aside_start - previous
        on_done(flight.record, result)
        previous = time.perf_counter()
        aside_wall += previous - aside_start
        aside_cpu += time.process_time() - aside_start_cpu
        if time.perf_counter() - start < seconds or submitted < min_jobs:
            submit()
    wall = time.perf_counter() - start - aside_wall
    return wall, time.process_time() - start_cpu - aside_cpu


class Collector:
    """Samples the host-speed reference right after each job, fills job
    records from results and spools the returned rows for the check."""

    def __init__(self, speed: HostSpeed, spool_path: str) -> None:
        self.records: List[JobRecord] = []
        self.digest = OutputDigest(DIGEST_JOBS)
        self.speed = speed
        self._spool_path = spool_path
        self._spool = open(spool_path, "wb")

    def __call__(self, record: JobRecord, result) -> None:
        record.reference_s = self.speed.sample()
        self.records.append(record)
        if result is None:
            return
        summary = result.summary
        record.status = result.status
        record.unique = len(result.solutions)
        record.generated = int(summary.get("generated", 0))
        record.valid = int(summary.get("valid", 0))
        record.rounds = sum(int(member.get("rounds", 0)) for member in result.members)
        record.busy_s = sum(
            float(member.get("seconds", 0.0)) + float(member.get("load_seconds", 0.0))
            for member in result.members
        )
        record.tiers = {key: int(summary.get(key, 0)) for key in TIER_KEYS}
        rows = result.solutions.to_matrix()
        record.spool_offset = self._spool.tell()
        record.shape = rows.shape
        self._spool.write(np.packbits(rows, axis=1).tobytes())
        self.digest.add(rows)

    def spooled_rows(self) -> Iterator[Tuple[JobRecord, np.ndarray]]:
        """``(record, rows)`` of every job that returned rows."""
        self._spool.close()
        with open(self._spool_path, "rb") as handle:
            for record in self.records:
                if record.shape is None:
                    continue
                count, columns = record.shape
                width = (columns + 7) // 8
                handle.seek(record.spool_offset)
                packed = np.frombuffer(handle.read(count * width), dtype=np.uint8)
                rows = np.unpackbits(packed.reshape(count, width), axis=1, count=columns)
                yield record, rows.astype(bool)


def check_outputs(workload: Workload, collect: Collector) -> Dict[str, int]:
    """Check every returned row and mark each failed job with its reason.

    A job fails when it raised, ended in another status than ``done``,
    returned fewer rows than it asked for, returned a row that does not
    satisfy its formula or a duplicate row, or did not take the workload's
    artifact tier exactly once.
    """
    rows_checked = bad_rows = duplicate_rows = 0
    expected_tiers = {key: int(key == workload.tier) for key in TIER_KEYS}
    for record, rows in collect.spooled_rows():
        bad = int((~workload.checker(record.check).satisfied(rows)).sum())
        duplicates = count_duplicate_rows(rows)
        rows_checked += rows.shape[0]
        bad_rows += bad
        duplicate_rows += duplicates
        if bad or duplicates:
            record.error = record.error or (
                f"{bad} rows fail the checker, {duplicates} duplicate rows"
            )
    for record in collect.records:
        if record.error is None and record.status != "done":
            record.error = f"status {record.status}"
        if record.error is None and record.unique < workload.num_solutions:
            record.error = f"{record.unique} of {workload.num_solutions} solutions"
        if record.error is None and record.tiers != expected_tiers:
            record.error = f"artifact tiers {record.tiers}, expected {expected_tiers}"
    return {
        "rows_checked": rows_checked,
        "bad_rows": bad_rows,
        "duplicate_rows": duplicate_rows,
    }


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process plus every live child."""
    import multiprocessing

    total_kb = 0
    for pid in ["self"] + [str(child.pid) for child in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    if total_kb == 0:
        import resource

        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def pin_processes(cpus: List[int]) -> None:
    """Give the client and each live worker a core of its own from ``cpus``.

    Left to the scheduler, most of the work on a two-core host lands on one
    core; with the client and the worker pinned apart, ``store_pool`` jobs
    ran about a quarter faster.
    """
    import multiprocessing

    workers = multiprocessing.active_children()
    if len(cpus) <= len(workers):
        return
    os.sched_setaffinity(0, {cpus[0]})
    for cpu, worker in zip(cpus[1:], workers):
        os.sched_setaffinity(worker.pid, {cpu})


def _warm(service, workload: Workload, repeat: int) -> None:
    for job in workload.warmup(repeat):
        job_id = service.submit(
            job.source, num_solutions=workload.num_solutions, config=workload.config(job.seed)
        )
        result = service.result(job_id)
        service.forget(job_id)
        if result.status != "done":
            raise RuntimeError(f"set-up job ended {result.status}: {result.error}")


def _median_ms(records: List[JobRecord], attribute: str) -> float:
    return 1000.0 * statistics.median(getattr(record, attribute) for record in records)


def timing_metrics(
    records: List[JobRecord], setup: List[Tuple[float, float]], scaled: bool
) -> Dict[str, float]:
    """The timing metrics, raw or at nominal host speed.

    Each job's times, and its share of the loop's wall time, are scaled by
    the reference sampled right after the job; each set-up, given as
    ``(seconds, reference seconds)``, by the reference sampled right after
    it.  The host drifts within a run too, so this follows it closer than
    one factor per run: on the same five warm_inline runs the spread of
    job_ms_p90 was 0.025 against 0.048 with the run's median sample.
    """

    def at_speed(seconds: float, reference_s: float) -> float:
        return HostSpeed.scale(seconds, reference_s) if scaled else seconds

    walls = [1000.0 * at_speed(record.wall_s, record.reference_s) for record in records]
    firsts = [at_speed(record.first_rows_s, record.reference_s) for record in records]
    serving_s = sum(at_speed(record.since_previous_s, record.reference_s) for record in records)
    return {
        "job_ms_p50": statistics.median(walls),
        "job_ms_p90": statistics.quantiles(walls, n=10)[-1],
        "first_rows_ms_p50": 1000.0 * statistics.median(firsts),
        "unique_per_s": sum(record.unique for record in records) / serving_s,
        "setup_s": statistics.median(at_speed(*sample) for sample in setup),
    }


def end_to_end_metrics(
    records: List[JobRecord], setup: List[Tuple[float, float]], peak_mb: float
) -> Dict[str, float]:
    first = records[:DIGEST_JOBS]
    metrics = timing_metrics(records, setup, scaled=True)
    metrics["peak_rss_mb"] = peak_mb
    metrics["unique_per_candidate"] = sum(record.unique for record in first) / max(
        sum(record.generated for record in first), 1
    )
    return metrics


def count_metrics(records: List[JobRecord], wall: float, cpu: float) -> Dict[str, float]:
    """Per-layer metrics that need no spans, from the untraced jobs."""
    count = len(records)
    generated = max(sum(record.generated for record in records), 1)
    valid = max(sum(record.valid for record in records), 1)
    metrics = {
        "serve.coordinator_cpu_ms_per_job": 1000.0 * cpu / count,
        "serve.worker_busy_ratio": sum(record.busy_s for record in records) / wall,
        "sampler.rounds_per_job": sum(record.rounds for record in records) / count,
        "sampler.valid_per_candidate": valid / generated,
        "sampler.unique_per_valid": sum(record.unique for record in records) / valid,
    }
    for key in TIER_KEYS:
        metrics[f"serve.{key}_per_job"] = (
            sum(record.tiers.get(key, 0) for record in records) / count
        )
    return metrics


def measure_ledger(service, workload: Workload, seconds: float, collect: Collector):
    """Alternate untraced and traced blocks; returns the per-layer metrics."""
    from repro import obs

    tracer = obs.tracer()
    pooled = bool(workload.service_options()["num_workers"])
    blocks = 1 if pooled else INLINE_LEDGER_BLOCKS
    block_seconds = seconds / (2 * blocks)
    indices = itertools.count()
    plain: List[JobRecord] = []
    traced: List[JobRecord] = []
    spans: List[Dict] = []
    plain_wall = plain_cpu = 0.0

    def collect_traced(record: JobRecord, result) -> None:
        collect(record, result)
        spans.extend(tracer.drain())

    with ledger.installed():
        for _ in range(blocks):
            before = len(collect.records)
            wall, cpu = closed_loop(service, workload, indices, block_seconds, collect)
            plain_wall += wall
            plain_cpu += cpu
            plain.extend(collect.records[before:])
            before = len(collect.records)
            obs.enable_tracing()
            tracer.clear()
            try:
                closed_loop(service, workload, indices, block_seconds, collect_traced)
                spans.extend(tracer.drain())
            finally:
                obs.disable_tracing()
            traced.extend(collect.records[before:])
    metrics = ledger.layer_metrics(spans, traced, pooled)
    metrics.update(count_metrics(plain, plain_wall, plain_cpu))
    metrics["obs.trace_overhead"] = (
        _median_ms(traced, "wall_s") / _median_ms(plain, "wall_s") - 1.0
    )
    return metrics


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, root: str, work_dir: str
) -> Dict[str, object]:
    """Run one measurement; returns ``{"record": ..., "result": ...}``.

    ``result`` is the benchmark's result line.  ``record`` carries what the
    line has no room for: provenance, the output digest, the check totals,
    the set-up samples and the work kept out of ``setup_s``.
    """
    import shutil

    import repro
    from repro import native
    from repro.serve import SamplingService

    # Paid once per host: built (or loaded from the kernel cache) before
    # set-up is timed, so setup_s never contains a C compile.
    native.kernels_for(None)
    workload = WORKLOADS[workload_name](seed)
    workload.load_inputs(os.path.join(work_dir, "inputs"))
    run_dir = os.path.join(work_dir, "runs", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    service = None
    try:
        with open(instance_file(WARM_INSTANCE, os.path.join(work_dir, "inputs"))) as handle:
            speed = HostSpeed(handle.read())
        timed_apart = workload.prepare_run(run_dir)
        setup: List[Tuple[float, float]] = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            if service is not None:
                service.close()
                service = None
                repro.clear_caches()
            gc.collect()
            start = time.perf_counter()
            service = SamplingService(**workload.service_options())
            pin_processes(cpus)
            _warm(service, workload, repeat)
            setup.append((time.perf_counter() - start, speed.sample()))
        collect = Collector(speed, os.path.join(run_dir, "rows.spool"))
        gc.collect()
        raw: Dict[str, float] = {}
        if trace:
            metrics = measure_ledger(service, workload, seconds, collect)
        else:
            closed_loop(service, workload, itertools.count(), seconds, collect, P90_MIN_JOBS)
            metrics = end_to_end_metrics(collect.records, setup, peak_rss_mb())
            raw = timing_metrics(collect.records, setup, scaled=False)
        service.close()
        service = None
        check = check_outputs(workload, collect)
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    records = collect.records
    failures = [record for record in records if record.error is not None]
    units = metric_units(root, trace)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "perfbench": "record",
        "workload": workload_name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(root, seed, len(records), len(cpus)),
        "digest": {"jobs": collect.digest.jobs, "sha256": collect.digest.hexdigest()},
        "host_speed": {
            "reference_ms_p50": _median_ms(records, "reference_s"),
            "nominal_reference_ms": NOMINAL_REFERENCE_MS,
            "raw_metrics": raw,
        },
        "setup": {
            "setup_s_samples": [seconds for seconds, _ in setup],
            "timed_apart": timed_apart,
            "untimed": ["native kernel build"],
        },
        "check": check,
        "failures": [
            {"index": failure.index, "error": failure.error} for failure in failures[:10]
        ],
    }
    return {"record": record, "result": result}


def metric_units(root: str, trace: bool) -> Dict[str, str]:
    """Metric units from BENCHMARK.json, the one place they are declared."""
    import json

    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }
