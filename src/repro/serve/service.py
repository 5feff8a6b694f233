"""The sampling service: submit jobs, collect streamed deduplicated results.

:class:`SamplingService` is the synchronous front door of :mod:`repro.serve`.
It accepts :class:`~repro.serve.jobs.SamplingJob` descriptions (or anything
:meth:`submit` can turn into one), runs them on a pool of ``spawn``-started
worker processes — or inline in this process when ``num_workers=0`` — and
hands back per-job :class:`~repro.core.solutions.SolutionSet` results with
aggregate statistics.

What the service layer adds over calling the sampler directly:

* **request coalescing** — identical in-flight requests (same formula
  signature, config, target and portfolio) run once; followers share the
  primary's solution pool (:mod:`repro.serve.queue`);
* **source memo** — a submit resolves its source to a signature through a
  memo keyed by the SHA-256 of the source's raw bytes, so a warm source is
  read and hashed but never re-parsed or re-signed.  The digest rides with
  every task: a build that re-reads a path refuses bytes that no longer
  have it, so a file edited after submit fails its job instead of yielding
  rows of another formula under the submitted signature;
* **admission** — a job whose ``num_variables × batch_size`` (its largest
  member batch) exceeds :data:`~repro.core.config.MAX_BATCH_CELLS` ends
  ``error`` at submit, before any build;
* **artifact affinity** — a task goes to a worker that already compiled its
  formula (:class:`~repro.serve.cache.ArtifactCache` per worker);
* **portfolio scheduling** — a job may fan out config variants; once the
  merged unique pool reaches the target the remaining members are cancelled
  cooperatively, and the members' sets merge with exact dedup in
  member-index order (:mod:`repro.serve.portfolio`);
* **streaming** — :meth:`stream` yields each round's new unique solutions
  as they arrive.

One scheduler, two drivers.  Every scheduling decision — coalescing,
admission, dispatch, cancellation, retry, supervision, drain and
finalization — is made once, by the pure state machine
:class:`~repro.serve.core.SchedulerCore`.  ``num_workers`` picks, at
construction, the driver that feeds it events and carries out its commands:
the **pool driver** owns the worker processes and their queues; the
**inline driver** is slot 0 in this process, running dispatched tasks
through :func:`~repro.serve.workers.execute_task` in submit order (members
in index order) while a caller waits in :meth:`result` or :meth:`stream`.
An inline retry runs at once — the driver ticks the core to its due time —
before the next job starts.

Determinism: with ``num_workers`` of 0 or 1, tasks execute sequentially in
a fixed order, so job results — portfolio merges included — are
bitwise-reproducible for a fixed (seed, worker-count) pair.  With more
workers only cancellation timing (how much a losing member contributes
before it stops) varies with scheduling.  The service is synchronous and
single-threaded: worker messages are pumped while a caller waits inside
:meth:`result`, :meth:`stream` or :meth:`drain`; wrap calls in a lock to
share one service across threads.

Fault tolerance: dead workers are respawned with per-slot backoff under a
bounded restart budget (:mod:`repro.serve.supervisor`), and their
in-flight tasks are retried under the service's one :class:`RetryPolicy`
(:mod:`repro.serve.retry`); a task whose last attempt a worker death spent
is quarantined as ``poisoned``.  Sampling is seed-deterministic and the
solution sets dedup exactly, so a job that survives a worker kill returns
the rows of an undisturbed run, bit for bit.  An optional
:class:`~repro.serve.journal.JobJournal` records the core's journal
commands for ``repro-sat serve --resume``, and :meth:`request_drain` starts
a graceful, signal-safe shutdown.
"""

from __future__ import annotations

import heapq
import time
from pathlib import Path
from queue import Empty
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.signatures import formula_signature
from repro.core.task import SamplingTask
from repro.serve.cache import ArtifactCache, DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from repro.serve.core import (
    MSG_ROUND,
    Cancel,
    Dispatch,
    Finished,
    JobResult,
    JobState,
    Record,
    Respawn,
    SchedulerCore,
    task_payload,
)
from repro.serve.jobs import SamplingJob, read_source
from repro.serve.journal import JobJournal, job_fingerprint
from repro.serve.portfolio import merge_member_solutions
from repro.serve.retry import RetryPolicy
from repro.serve.workers import execute_task, unpack_rows, worker_main
from repro.store import ArtifactStore
from repro.utils.weakcache import BoundedLRUCache
from repro import obs

#: Service-side job/artifact accounting.  ``repro_serve_artifacts_total`` is
#: incremented when a job finishes, from exactly the member records that
#: land in ``results.json``, so the registry's artifact-tier counters and the
#: written summaries agree by construction.
_SERVE_JOBS = obs.counter(
    "repro_serve_jobs_total",
    "Sampling jobs finalized by the service, by status.",
    labels=("status",),
)
_SERVE_ARTIFACTS = obs.counter(
    "repro_serve_artifacts_total",
    "Artifact resolutions across job members, by tier.",
    labels=("source",),
)
_SERVE_KERNEL_TIERS = obs.counter(
    "repro_serve_kernel_tier_total",
    "Job members by the native kernel tier they executed on.",
    labels=("tier",),
)
_SERVE_WORKER_EVENTS = obs.counter(
    "repro_serve_worker_events_total",
    "Worker-pool lifecycle events seen by the supervisor.",
    labels=("event",),  # death / respawn / abandoned
)
_SERVE_RETRIES = obs.counter(
    "repro_serve_task_retries_total",
    "Task attempts requeued by the retry policy, by failure cause.",
    labels=("cause",),  # died / error
)
_SERVE_SOURCE_OPS = obs.counter(
    "repro_serve_source_ops_total",
    "Source-digest memo lookups at submit, by outcome.",
    labels=("op",),  # hit / miss
)

#: Bound on the per-service source memo (raw-byte digest -> signature and
#: width).  Entries are two short strings and an int, so this is small.
SOURCE_MEMO_ENTRIES = 1024

#: How long one blocking poll of the result queue lasts (seconds); liveness
#: of the worker processes is re-checked between polls.
_POLL_SECONDS = 0.1


def _merge(*args, **kwargs):
    """:func:`merge_member_solutions`, looked up in this module at call time."""
    return merge_member_solutions(*args, **kwargs)


class SamplingService:
    """Multi-worker sampling front end (see the module docstring).

    Parameters
    ----------
    num_workers:
        0 runs every task inline in this process (deterministic, no
        subprocesses); N >= 1 starts N ``spawn`` worker processes.
    cache_entries / cache_bytes:
        Bounds of each worker's formula-keyed artifact cache (LRU over
        entry count *and* total compiled bytes).
    store_dir:
        Persistent artifact-store tier under every worker's memory cache
        (see :mod:`repro.store`).  ``None`` defers to ``$REPRO_STORE_DIR``
        (off when unset), ``False``/``"off"`` is explicitly off, ``True``
        uses the conventional ``~/.cache/repro-sat/store`` location, and a
        path uses that directory.  With a store, a formula's cold
        transform/compile is paid once across the whole pool (single-flight
        build lease) and survives service restarts.
    trace:
        Telemetry spec (:mod:`repro.obs`) scoped to this service's lifetime:
        ``True``/``"mem"`` enables the in-memory span ring, a path streams
        the merged trace — service job spans plus every worker's task spans,
        correctly parented — to that JSONL file, ``False``/``"off"`` keeps
        tracing off (here and in every worker, whatever ``$REPRO_TRACE``
        says), and ``None`` defers to ``$REPRO_TRACE``.  On
        :meth:`close` the merged metrics dump is appended to the trace file.
    retry:
        The :class:`~repro.serve.retry.RetryPolicy` every failed task of
        every job is retried under (``None``: the default policy).  With a
        pool, dead workers are always respawned and their in-flight tasks
        requeued; a death spends one attempt of the task's budget.
    journal:
        Crash-safe job journal: a :class:`~repro.serve.journal.JobJournal`
        or a path to create one at.  Records submissions, attempts,
        requeues, worker events and completions — the WAL behind
        ``repro-sat serve --resume``.  ``None`` (default) journals nothing.
    faults:
        Deterministic fault-injection spec (:mod:`repro.faults`) installed
        in this process and shipped to every worker.  ``None`` defers to
        the ``REPRO_FAULTS`` environment variable (which spawn workers
        inherit anyway).
    """

    def __init__(
        self,
        num_workers: int = 0,
        *,
        cache_entries: int = DEFAULT_MAX_ENTRIES,
        cache_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        store_dir: Union[None, bool, str, Path] = None,
        trace: Union[None, bool, str, Path] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Union[None, str, Path, JobJournal] = None,
        faults: Optional[str] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be non-negative, got {num_workers}")
        from repro import native
        from repro.store import resolve_store_dir

        # The engine runs only on the C tier: a host that cannot build it
        # fails here, before any job is admitted or any worker spawned.
        native.kernels_for(None)

        self.num_workers = num_workers
        resolved_store = resolve_store_dir(store_dir)
        self.store_dir: Optional[str] = (
            str(resolved_store) if resolved_store is not None else None
        )
        self._counter = 0
        #: Raw-byte source digest -> (signature, num_variables): lets a warm
        #: submit skip the parse and the signature hash.
        self._source_memo = BoundedLRUCache(
            max_entries=SOURCE_MEMO_ENTRIES, max_bytes=None
        )
        self._closed = False
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
            )
        self._retry_policy = retry if retry is not None else RetryPolicy()
        self._journal: Optional[JobJournal] = (
            journal if isinstance(journal, (JobJournal, type(None))) else JobJournal(journal)
        )
        if faults is not None:
            from repro import faults as faults_module

            faults_module.install_plan(faults)
        if trace is True:
            trace = "mem"
        elif trace is False:
            trace = "off"
        elif trace is not None:
            trace = str(trace)
        self._trace_scope = obs.trace_scope(trace)
        self._trace_scope.__enter__()
        self._telemetry = obs.TelemetryAggregator()
        self._core = SchedulerCore(max(num_workers, 1), self._retry_policy, merge=_merge)
        self._jobs: Dict[str, JobState] = self._core.jobs
        if num_workers == 0:
            self._driver = _InlineDriver(self, cache_entries, cache_bytes)
        else:
            self._driver = _PoolDriver(
                self, num_workers, cache_entries=cache_entries, cache_bytes=cache_bytes,
                store_dir=self.store_dir, faults_spec=faults,
            )

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._core.close()
        self._driver.close()
        if self._journal is not None:
            self._journal.close()
        if obs.tracing_enabled():
            # The trace file ends with the merged (service + workers) metrics
            # dump, so `repro-sat obs` can print counters next to the spans.
            obs.write_metrics_to_trace(self.merged_metrics())
        self._trace_scope.__exit__(None, None, None)

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- submission ---------------------------------------------------------------------
    def submit(
        self,
        source: Union[SamplingJob, CNF, str, Path, Dict[str, str]],
        num_solutions: int = 1000,
        config: Optional[SamplerConfig] = None,
        *,
        portfolio: Union[int, Sequence[Dict[str, object]], None] = None,
        coalesce: bool = True,
        job_id: Optional[str] = None,
        task: Optional[SamplingTask] = None,
    ) -> str:
        """Submit one sampling job; returns its job id immediately.

        ``source`` may be a ready :class:`SamplingJob` (remaining arguments
        are then ignored) or anything
        :func:`~repro.serve.jobs.normalize_source` accepts — a
        :class:`CNF`, DIMACS text, a ``.cnf`` path, a registry-instance
        spec.  ``task`` attaches a workload spec
        (:class:`~repro.core.task.SamplingTask`): projection, weights
        and/or a clause delta.
        """
        start = time.perf_counter()
        if self._closed:
            raise RuntimeError("the service is closed")
        if self._core.drain_requested:
            raise RuntimeError("the service is draining; no new jobs are admitted")
        if isinstance(source, SamplingJob):
            job = source
        else:
            job = SamplingJob.build(
                source,
                num_solutions=num_solutions,
                config=config,
                portfolio=portfolio,
                coalesce=coalesce,
                job_id=job_id,
                task=task,
            )
        if job.job_id:
            job_id = job.job_id
            if job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
        else:
            # Auto ids skip names explicit submissions already took.
            while f"job-{self._counter}" in self._jobs:
                self._counter += 1
            job_id = f"job-{self._counter}"
            self._counter += 1

        digest, data = read_source(job.source)
        source_hit = False
        formula = None
        if job.task.is_incremental:
            # The artifact cache is content-addressed on the *effective*
            # formula, so a clause delta needs the parsed base formula.
            formula = job.load_formula(data)
            base_signature = formula_signature(formula)
            effective = job.task.apply_to(formula)
            signature = formula_signature(effective)
            num_variables = effective.num_variables
        else:
            # Projections and weights never change the formula, so the
            # source's raw-byte digest determines the artifact key.  A miss
            # parses the very bytes that were hashed.
            memo = self._source_memo.get(digest)
            source_hit = memo is not None
            _SERVE_SOURCE_OPS.inc(1.0, "hit" if source_hit else "miss")
            if memo is None:
                formula = job.load_formula(data)
                memo = (formula_signature(formula), formula.num_variables)
                self._source_memo.put(digest, memo)
            signature, num_variables = memo
            base_signature = signature
        state = JobState(
            job=job, job_id=job_id, signature=signature, digest=digest,
            num_variables=num_variables, start=start, base_signature=base_signature,
            project=job.task.projection_columns(num_variables) or None,
            fingerprint=job_fingerprint(job, digest) if self._journal is not None else None,
        )
        job.task.weight_map(num_variables)  # fail fast on out-of-range weights
        self._core.submit(state, time.perf_counter())
        if state.primary is None and not state.done:
            self._driver.hand_off(state, formula)
            if obs.tracing_enabled():
                # Detached: the job outlives this call and finishes when the
                # core finalizes it; its id is what worker task spans parent
                # under, and the job id doubles as the trace id grouping the
                # whole timeline.
                attributes = {"job_id": job_id, "instance": str(job.source)[:120],
                              "num_solutions": job.num_solutions, "source_hit": source_hit}
                state.span = obs.tracer().begin("serve.job", attributes=attributes, trace_id=job_id)
        self._apply()
        return job_id

    # -- results ------------------------------------------------------------------------
    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        """Block until ``job_id`` finishes and return its :class:`JobResult`.

        Raises :class:`TimeoutError` when ``timeout`` (seconds) elapses
        first; the job keeps running and ``result`` may be called again.
        ``timeout`` bounds only the *wait* for the worker pool — with
        ``num_workers=0`` the pending jobs execute synchronously inside this
        very call, so there is nothing to wait on and the parameter is
        ignored (bound a job's own runtime with
        ``SamplerConfig(timeout_seconds=...)`` instead).
        """
        state = self._state(job_id)
        if state.result is not None:
            # already materialised (possibly when its primary was forgotten)
            return state.result
        primary = self._core.primary_of(state)
        if not primary.done:
            self._driver.wait(primary, timeout)
        result = self._core.result_of(state)
        self._apply()
        return result

    def stream(self, job_id: str) -> Iterator[np.ndarray]:
        """Yield each round's new unique solutions as boolean matrices.

        Matrices arrive in completion order across the job's (or its
        coalesce primary's) portfolio members; rows are unique within a
        member, a retried attempt included, but may repeat across members —
        :meth:`result` returns the exactly-deduplicated merge.  A one-member
        job's streamed rows, concatenated, are exactly its result's rows.
        The matrices are read-only: they are the rows the result holds, not
        copies.  With ``num_workers=0`` the job runs to completion on first
        pull, then the buffered rounds are yielded.
        """
        primary = self._core.primary_of(self._state(job_id))
        cursor = 0
        while True:
            while cursor < len(primary.stream_buffer):
                yield primary.stream_buffer[cursor]
                cursor += 1
            if primary.done:
                return
            self._driver.advance(primary)

    def drain(self) -> None:
        """Finish every outstanding job (useful before reading cache stats)."""
        for job_id in list(self._jobs):
            self.result(job_id)

    def forget(self, job_id: str) -> JobResult:
        """Release a *finished* job's retained state and return its result.

        The service keeps every job's result, merged solution set and
        streamed round buffer for the process lifetime so that ``result``/
        ``stream`` stay repeatable; a long-lived deployment should call
        ``forget`` once it has consumed a job, or memory grows with every
        job served.  Raises :class:`RuntimeError` for a job that is still
        running (cancel it by letting it finish — there is no abort API).
        Coalesced followers of the job are materialised first, so their
        ``result`` calls keep working after the primary is forgotten.
        """
        result = self._core.forget(job_id)
        self._apply()
        return result

    def request_drain(self) -> None:
        """Ask for a graceful drain.  Signal-handler safe: only sets a flag.

        On the next pump (or inline task) in-flight sampling is cancelled
        at its next checkpoint, queued work is skipped, unfinished jobs
        finalize — as ``"interrupted"`` when short of their target — and new
        submissions are refused.  Callers blocked in :meth:`result` get the
        checkpointed result back instead of hanging.
        """
        self._core.request_drain()

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Inline-mode artifact-cache counters (``None`` with a worker pool:
        each worker owns its cache and reports per-task hits in the member
        records instead)."""
        return self._driver.cache_stats()

    @property
    def telemetry(self) -> obs.TelemetryAggregator:
        """The aggregator merging worker telemetry snapshots (see
        :mod:`repro.obs.snapshot`)."""
        return self._telemetry

    def merged_metrics(self) -> Dict[str, Dict[str, object]]:
        """One metrics dump covering this process *and* every worker seen so
        far (each worker's latest cumulative snapshot — exact totals)."""
        return self._telemetry.merged_metrics()

    # -- internals ----------------------------------------------------------------------
    def _state(self, job_id: str) -> JobState:
        return self._core.state(job_id)

    def _apply(self) -> None:
        """Carry out the core's commands: the driver runs dispatches,
        cancels and respawns; journal records and finished jobs are
        handled here."""
        for command in self._core.take():
            if isinstance(command, Dispatch):
                self._driver.dispatch(command.slot, task_payload(command.job, command.task))
            elif isinstance(command, Record):
                self._record(command.type, command.fields)
            elif isinstance(command, Finished):
                self._finished(command.job)
            elif isinstance(command, Cancel):
                self._driver.cancel(command.group)
            else:
                assert isinstance(command, Respawn), command
                self._driver.respawn(command.slot, command.incarnation, command.cancelled)

    def _record(self, type_: str, fields: Dict[str, object]) -> None:
        """The one journal-command handler: count retries and worker events,
        and append the record to the journal when there is one."""
        if type_ == "retry":
            _SERVE_RETRIES.inc(1.0, str(fields["cause"]))
        elif type_ == "worker":
            _SERVE_WORKER_EVENTS.inc(1.0, str(fields["event"]))
        if self._journal is None:
            return
        if type_ == "done":
            from repro.io.results_io import job_result_row

            fields = {**fields, "result": job_result_row(fields["result"])}
        self._journal.record(type_, **fields)

    def _finished(self, state: JobState) -> None:
        result = state.result
        _SERVE_JOBS.inc(1.0, result.status)
        for member in result.members:
            source = member.get("artifact_source")
            if source is not None:
                _SERVE_ARTIFACTS.inc(1.0, str(source))
            tier = member.get("kernel_tier")
            if tier is not None:
                _SERVE_KERNEL_TIERS.inc(1.0, str(tier))
        if state.span is not None:
            state.span.set("status", result.status)
            state.span.set("unique_solutions", result.num_unique)
            state.span.finish()
            state.span = None


class _InlineDriver:
    """Slot 0 of the core, run in this process (``num_workers=0``).

    Dispatched tasks wait in a heap keyed by (job submit order, attempt,
    member index), so a retry runs after its job's first attempts and
    before the next job, and run through :func:`execute_task` while a
    caller waits.  Slot 0 never dies, so the core never respawns it.
    """

    def __init__(self, service: SamplingService, cache_entries: int, cache_bytes: Optional[int]):
        self._service, self._core = service, service._core
        store = ArtifactStore(service.store_dir) if service.store_dir is not None else None
        self._cache = ArtifactCache(max_entries=cache_entries, max_bytes=cache_bytes, store=store)
        self._ready: List[Tuple[int, int, int, Dict[str, object]]] = []
        self._cancelled: Set[str] = set()
        #: The job whose tasks are running, and the formula its submit parsed.
        self._running: Optional[JobState] = None
        self._formula: Optional[CNF] = None

    def hand_off(self, state: JobState, formula: Optional[CNF]) -> None:
        state.formula = formula  # the build reads it instead of parsing again

    def dispatch(self, slot: int, payload: Dict[str, object]) -> None:
        job_id, member_index = payload["key"]
        order = (self._core.jobs[job_id].seq, payload["attempt"], member_index)
        heapq.heappush(self._ready, (*order, payload))

    def cancel(self, group: str) -> None:
        self._cancelled.add(group)

    def wait(self, state: JobState, timeout: Optional[float] = None) -> None:
        """Run queued tasks until ``state`` finishes (``timeout`` is moot)."""
        while not state.done:
            # Tick to now, then on to each pending retry's due time: an
            # inline retry does not wait out its backoff.
            now = time.perf_counter()
            while now is not None:
                self._core.tick(now)
                now = self._core.next_deadline()
            self._service._apply()
            if state.done:
                break
            if not self._ready:
                raise RuntimeError(f"job {state.job_id!r} cannot finish: nothing pending")
            self._run(heapq.heappop(self._ready)[-1])

    advance = wait

    def cache_stats(self) -> Optional[Dict[str, int]]:
        return self._cache.stats()

    def close(self) -> None:
        pass

    def _run(self, payload: Dict[str, object]) -> None:
        core, apply = self._core, self._service._apply
        group, attempt = payload["group"], payload["attempt"]
        state = core.jobs[group]
        if state is not self._running:
            self._running = state
            self._formula, state.formula = state.formula, None

        def emit(kind: str, key: Tuple, message: Dict[str, object]) -> None:
            message.setdefault("attempt", attempt)
            core.message(kind, key, message, time.perf_counter())
            apply()

        execute_task(
            payload,
            self._cache,
            should_stop=lambda: group in self._cancelled or core.drain_requested,
            emit=emit,
            worker_id=0,
            formula=self._formula,
        )
        if state.done:
            self._running = self._formula = None


class _WorkerHandle:
    """One spawned worker process (an incarnation of its slot) and its task
    and cancel queues; ``dead_handled`` once the core was told it died."""

    def __init__(self, context, slot: int, incarnation: int, result_queue, options) -> None:
        self.worker_id = slot
        self.dead_handled = False
        self.task_queue = context.Queue()
        self.cancel_queue = context.Queue()
        self.process = context.Process(
            target=worker_main,
            args=(slot, self.task_queue, result_queue, self.cancel_queue),
            kwargs={**options, "incarnation": incarnation},
            daemon=True,
            name=f"repro-serve-worker-{slot}.{incarnation}",
        )
        self.process.start()


class _PoolDriver:
    """``num_workers`` spawned worker processes: their messages and deaths go
    into the core as events, and its dispatches, cancels and respawns go
    onto their queues."""

    def __init__(self, service: SamplingService, num_workers: int, **options) -> None:
        import multiprocessing

        self._service, self._core = service, service._core
        self._context = multiprocessing.get_context("spawn")
        self._result_queue = self._context.Queue()
        self._options = options
        self.workers = [self._spawn(slot, 0) for slot in range(num_workers)]

    def _spawn(self, slot: int, incarnation: int) -> _WorkerHandle:
        return _WorkerHandle(self._context, slot, incarnation, self._result_queue, self._options)

    def hand_off(self, state: JobState, formula: Optional[CNF]) -> None:
        pass  # workers run in another process and parse their own copy

    def dispatch(self, slot: int, payload: Dict[str, object]) -> None:
        self.workers[slot].task_queue.put(payload)

    def cancel(self, group: str) -> None:
        for worker in self.workers:
            self._tell(worker, group)

    def respawn(self, slot: int, incarnation: int, cancelled: Tuple[str, ...]) -> None:
        self.workers[slot] = handle = self._spawn(slot, incarnation)
        for group in cancelled:
            self._tell(handle, group)

    def wait(self, state: JobState, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not state.done:
            if deadline is not None and time.perf_counter() >= deadline:
                raise TimeoutError(f"job {state.job_id!r} did not finish within {timeout} seconds")
            self._pump()

    def advance(self, state: JobState) -> None:
        self._pump()

    def cache_stats(self) -> Optional[Dict[str, int]]:
        return None

    def close(self) -> None:
        for worker in self.workers:
            if not worker.dead_handled:
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        for worker in self.workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.task_queue.close()
            worker.cancel_queue.close()
        self._result_queue.close()

    @staticmethod
    def _tell(worker: _WorkerHandle, group: str) -> None:
        if not worker.dead_handled:
            try:
                worker.cancel_queue.put(group)
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    def _pump(self) -> None:
        """Process the queued worker messages, or wait for one — on the
        result-queue pipe *and* every live worker's process sentinel, so a
        death wakes the wait at once — at most until the core's next
        deadline or one poll interval; then tell the core of dead workers
        and tick it."""
        if not self._read_messages():
            from multiprocessing.connection import wait as mp_wait

            sentinels = [w.process.sentinel for w in self.workers if not w.dead_handled]
            deadline = self._core.next_deadline()
            timeout = _POLL_SECONDS
            if deadline is not None:
                timeout = max(min(timeout, deadline - time.perf_counter()), 0.001)
            try:
                mp_wait([self._result_queue._reader] + sentinels, timeout=timeout)
            except OSError:  # pragma: no cover - sentinel raced a death
                time.sleep(0.001)
            self._read_messages()
        for worker in self.workers:
            if not worker.dead_handled and not worker.process.is_alive():
                worker.dead_handled = True
                now = time.perf_counter()
                self._core.worker_died(worker.worker_id, worker.process.exitcode, now)
        self._core.tick(time.perf_counter())
        self._service._apply()

    def _read_messages(self) -> bool:
        received = False
        while True:
            try:
                kind, key, payload = self._result_queue.get_nowait()
            except Empty:
                return received
            received = True
            if kind == MSG_ROUND:
                # A worker bit-packed the round's rows for the trip.
                payload["rows"] = unpack_rows(*payload["rows"])
            self._service._telemetry.absorb(payload.get("telemetry"))
            self._core.message(kind, key, payload, time.perf_counter())
            self._service._apply()
