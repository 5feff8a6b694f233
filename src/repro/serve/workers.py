"""Process workers: where sampling tasks actually execute.

One *task* is one sampling run — a whole job, or one member of a portfolio
job.  Tasks are plain picklable dictionaries (built by the service) and all
execution goes through :func:`execute_task`, which both deployment modes
share:

* the **inline** driver (``num_workers=0``) calls it directly in the
  service process, as slot 0 of the service's scheduler core: the core's
  dispatches queue there and run in submit order while a caller waits, and
  a cancel fills the set its ``should_stop`` reads — deterministic,
  dependency-free, what tests and small scripts use;
* the **process pool** runs :func:`worker_main` in ``spawn``-started
  subprocesses.  ``spawn`` (never ``fork``) keeps the workers safe in the
  presence of threaded native libraries and makes the pool behave
  identically on every platform.

Inline and pooled runs share :func:`execute_task`, so they agree.  Each
worker owns one :class:`~repro.serve.cache.ArtifactCache`, so consecutive
tasks on the same formula reuse its compiled round (learn and fill programs,
row maps) and CNF plan across jobs — the warm-cache path the serving
benchmark measures.  A task samples from the artifact's round alone, so a
store-loaded artifact never decodes its formula or transform here.

Results stream back as ``(kind, task_key, payload)`` messages: a
``"round"`` message per sampling round carrying the round's new unique
solutions as a boolean matrix, then one terminal ``"done"`` or ``"error"``.
Inline execution hands the matrix straight to the core; a pool worker
bit-packs it with :func:`pack_rows` for the single shared result queue, and
the service unpacks it with :func:`unpack_rows` as it reads the queue.
Message order per task is the emission order (one queue, one producer
process per task), which the service relies on when it rebuilds the
per-task solution sets.

Cancellation rides a dedicated per-worker queue rather than shared memory:
the service broadcasts a cancelled *group id* to every worker, and the
worker's ``should_stop`` hook — polled by the sampler at its deadline check
points — drains the queue into a local set.  A task whose group is already
cancelled when it reaches the front of the queue is skipped entirely and
reports ``cancelled`` with zero work.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro.cnf.formula import CNF
from repro.core.sampler import GradientSATSampler
from repro.core.task import SamplingTask
from repro.serve.cache import ArtifactCache, DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from repro.serve.core import MSG_DONE, MSG_ERROR, MSG_ROUND
from repro.serve.jobs import config_from_dict, load_source, read_source
from repro import obs


def pack_rows(matrix: np.ndarray) -> Tuple[bytes, int, int]:
    """Bit-pack a boolean matrix for the result queue (8x smaller pickles)."""
    matrix = np.asarray(matrix, dtype=bool)
    return np.packbits(matrix, axis=1).tobytes(), matrix.shape[0], matrix.shape[1]


def unpack_rows(blob: bytes, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`."""
    if rows == 0:
        return np.zeros((0, cols), dtype=bool)
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(rows, -1)
    return np.unpackbits(packed, axis=1, count=cols).view(bool)


def _load_submitted(task: Dict[str, object]) -> CNF:
    """The formula of ``task["source"]`` as it was when the job was submitted.

    Raises :class:`ValueError` naming the path when the file's bytes no
    longer have the submit-side digest (only a file can change).
    """
    spec = task["source"]
    digest, data = read_source(spec)
    if digest != task["digest"]:
        raise ValueError(f"{spec['path']}: the source changed since the job was submitted")
    return load_source(spec, data)


def execute_task(
    task: Dict[str, object],
    cache: ArtifactCache,
    should_stop: Optional[Callable[[], bool]],
    emit: Callable[[str, Tuple, Dict[str, object]], None],
    worker_id: int = 0,
    snapshot_telemetry: bool = False,
    formula: Optional[CNF] = None,
) -> None:
    """Run one sampling task and emit its round/done/error messages.

    Never raises: failures are reported as an ``"error"`` message so a bad
    job cannot take its worker down.  ``formula`` is the task's base
    formula when the caller already parsed it (inline execution hands over
    the parse ``submit`` made); otherwise a build reads
    ``task["source"]`` once and parses those bytes, unless their digest is
    not ``task["digest"]``, the one ``submit`` signed: a file edited since
    then fails the task rather than building rows of another formula under
    the submitted signature.

    Telemetry: a ``task["trace"]`` flag turns on ring-only tracing in this
    process (workers never open trace files — the service owns the trace
    sink) and the task runs under a ``serve.task`` span parented, via the
    explicit ``task["trace_parent"]`` id, under the service's job span.
    With ``snapshot_telemetry`` (the spawned-worker pool sets it) every
    terminal payload carries a :class:`repro.obs.TelemetrySnapshot` — the
    spans buffered while the task ran plus this process's cumulative metric
    counters — for the service to merge.  Inline execution leaves it off:
    the service already shares this process's tracer and registry.
    """
    from repro import native

    key = task["key"]
    if task.get("trace") and not obs.tracing_enabled():
        obs.enable_tracing()  # ring only; the service owns the trace file
    if obs.tracing_enabled():
        tspan = obs.tracer().start_span(
            "serve.task",
            attributes={"key": str(key), "worker": worker_id},
            parent_id=task.get("trace_parent"),
            trace_id=task.get("trace_id"),
        )
    else:
        tspan = obs.NOOP_SPAN

    def telemetry() -> Optional[Dict[str, object]]:
        if not snapshot_telemetry:
            return None
        return obs.capture_snapshot(worker_id=worker_id).to_payload()

    try:
        if should_stop is not None and should_stop():
            tspan.set("cancelled", True)
            tspan.finish()
            # Skipped with no work: the member record's defaults apply.
            emit(MSG_DONE, key, {"summary": None, "cancelled": True, "worker": worker_id,
                                 "telemetry": telemetry()})
            return
        compile_before = native.compile_seconds()
        task_spec = SamplingTask.from_dict(task.get("task"))
        memory_hits_before = cache.stats()["hits"]
        # task["signature"] keys the *effective* (post-delta) formula; the
        # base formula's signature enables incremental derivation from a
        # warm parent artifact.
        artifact, built, derived = cache.get_or_build_task(
            task_spec,
            signature=task["signature"],
            base_signature=task.get("base_signature", task["signature"]),
            loader=lambda: formula if formula is not None else _load_submitted(task),
        )
        # Which tier satisfied this task: compiled here, memory-cache hit, or
        # loaded from the persistent store.  The worker runs tasks serially,
        # so the hit-counter delta is race-free.
        if built:
            artifact_source = "built"
        elif cache.stats()["hits"] > memory_hits_before:
            artifact_source = "memory"
        else:
            artifact_source = artifact.source
        config = config_from_dict(task["config"])
        # The artifact's compiled round is all a sampler reads: a store-loaded
        # artifact samples without decoding its formula or transform.
        sampler = GradientSATSampler(artifact, config=config, task=task_spec)

        def on_round(record, new_rows) -> None:
            emit(
                MSG_ROUND,
                key,
                {
                    "round_index": record.round_index,
                    "num_candidates": record.num_candidates,
                    "num_valid": record.num_valid,
                    "num_new_unique": record.num_new_unique,
                    "seconds": record.seconds,
                    "rows": new_rows,
                },
            )

        result = sampler.sample(
            num_solutions=int(task["num_solutions"]),
            should_stop=should_stop,
            on_round=on_round,
        )
        tspan.set("artifact_source", artifact_source)
        tspan.set("unique_solutions", result.num_unique)
        tspan.finish()
        emit(
            MSG_DONE,
            key,
            {
                "summary": result.summary(),
                "cancelled": result.stopped_early,
                "worker": worker_id,
                "cache_hit": not built,
                "build_seconds": artifact.build_seconds if built else 0.0,
                "transform_seconds": artifact.transform_seconds if built else 0.0,
                "task": task_spec.kind(),
                "incremental_artifact": derived,
                "artifact_source": artifact_source,
                "load_seconds": artifact.load_seconds if artifact_source == "store" else 0.0,
                # Cumulative cache/store counters of this worker at task end
                # (memory hits/misses/evictions plus store_* when a
                # persistent store is attached; read after sampling, so a
                # transform decode the task caused is counted) — surfaced
                # into member records and results.json.
                "cache_stats": cache.stats(),
                # Which engine tier this task ran on and any one-time kernel
                # build cost incurred while it ran — kept out of the sampling
                # seconds so cold and warm runs stay comparable.
                "kernel_tier": native.active_tier(),
                "compile_seconds": native.compile_seconds() - compile_before,
                "telemetry": telemetry(),
            },
        )
    except BaseException as error:  # noqa: BLE001 - the worker must survive
        if tspan is not obs.NOOP_SPAN:
            tspan.status = "error"
            tspan.set("error", type(error).__name__)
            tspan.finish()
        emit(
            MSG_ERROR,
            key,
            {
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
                "worker": worker_id,
                "telemetry": telemetry(),
            },
        )


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    cancel_queue,
    cache_entries: int = DEFAULT_MAX_ENTRIES,
    cache_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    store_dir: Optional[str] = None,
    incarnation: int = 0,
    faults_spec: Optional[str] = None,
) -> None:
    """Entry point of one worker process: loop until the ``None`` sentinel.

    ``incarnation`` counts respawns of this worker slot (0 = the original
    process); it exists so fault-plan rules (:mod:`repro.faults`) can target
    "the original worker only" — the pattern chaos tests use to kill a
    worker exactly once and assert its replacement recovers the job.
    ``faults_spec`` carries the service's explicit plan; when ``None`` the
    plan comes lazily from the inherited ``REPRO_FAULTS`` environment.

    Every message echoes its task's ``attempt`` epoch, so the service can
    discard messages a dead incarnation left buffered in the result queue
    after the task was requeued elsewhere.
    """
    import os

    from repro import faults

    if faults_spec is not None:
        faults.install_plan(faults_spec)
    faults.set_identity(worker=worker_id, incarnation=incarnation)
    store = None
    if store_dir is not None:
        from repro.store import ArtifactStore

        store = ArtifactStore(store_dir)
    cache = ArtifactCache(max_entries=cache_entries, max_bytes=cache_bytes, store=store)
    cancelled_groups: Set[object] = set()
    current_attempt = {"value": 0}

    def drain_cancellations() -> None:
        try:
            while True:
                cancelled_groups.add(cancel_queue.get_nowait())
        except queue_module.Empty:
            pass

    def die() -> None:
        # Simulated OOM kill.  Flush the result-queue feeder thread first so
        # rounds emitted *before* the injected death are delivered — the
        # fault models a crash between tasks/rounds, not message loss (the
        # service's dedup makes replays idempotent either way).
        try:
            result_queue.close()
            result_queue.join_thread()
        except (OSError, ValueError):
            pass
        os._exit(137)

    def emit(kind: str, key, payload: Dict[str, object]) -> None:
        payload.setdefault("attempt", current_attempt["value"])
        if kind == MSG_ROUND:
            payload["rows"] = pack_rows(payload["rows"])
        delay_rule = faults.fire("delay")
        if delay_rule is not None:
            time.sleep(delay_rule.seconds)
        result_queue.put((kind, key, payload))
        if kind == MSG_ROUND and faults.fire("kill", phase="round") is not None:
            die()

    while True:
        task = task_queue.get()
        if task is None:
            break
        if faults.fire("kill", phase="task") is not None:
            die()
        group = task.get("group")
        current_attempt["value"] = int(task.get("attempt", 0))

        def should_stop(group=group) -> bool:
            drain_cancellations()
            return group in cancelled_groups

        execute_task(task, cache, should_stop, emit, worker_id, snapshot_telemetry=True)
