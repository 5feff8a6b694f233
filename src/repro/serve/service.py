"""The sampling service: submit jobs, collect streamed deduplicated results.

:class:`SamplingService` is the synchronous front door of :mod:`repro.serve`.
It accepts :class:`~repro.serve.jobs.SamplingJob` descriptions (or anything
:meth:`submit` can turn into one), schedules them over a pool of
``spawn``-started worker processes — or runs them inline in this process
when ``num_workers=0`` — and hands back per-job
:class:`~repro.core.solutions.SolutionSet` results with aggregate
statistics.

What the service layer adds over calling the sampler directly:

* **request coalescing** — identical in-flight requests (same formula
  signature, config, target and portfolio) run once; followers share the
  primary's solution pool (:mod:`repro.serve.queue`);
* **source memo** — a submit resolves its source to a signature through a
  memo keyed by the SHA-256 of the source's raw bytes, so a warm source is
  read and hashed but never re-parsed or re-signed.  The digest rides with
  every task: a build that re-reads a path (a pool worker, or an inline
  job whose submit was a memo hit) refuses bytes that no longer have it,
  so a file edited after submit fails its job instead of yielding rows of
  another formula under the submitted signature;
* **artifact affinity** — jobs are routed to a worker that already compiled
  the formula, so a hot formula never recompiles
  (:class:`~repro.serve.cache.ArtifactCache` per worker, signature-affinity
  dispatch);
* **portfolio scheduling** — a job may fan out config variants; the first
  time the job's merged unique pool reaches the target, the remaining
  members are cancelled cooperatively and the members' sets are merged with
  exact dedup in member-index order (:mod:`repro.serve.portfolio`);
* **streaming** — :meth:`stream` yields each round's new unique solutions
  as they arrive, long before the job finishes.

Determinism: with ``num_workers`` of 0 or 1, tasks execute sequentially in
a fixed order, so job results — portfolio merges included — are
bitwise-reproducible for a fixed (seed, worker-count) pair.  With
more workers, per-member sampling is still seed-deterministic; only
cancellation timing (how much a losing member contributes before it stops)
varies with scheduling.

The service is deliberately synchronous and single-threaded: messages from
workers are pumped while a caller waits inside :meth:`result`,
:meth:`stream` or :meth:`drain`.  It is not itself thread-safe; wrap calls
in a lock to share one service across threads.

Fault tolerance (with a worker pool): dead workers are always *supervised*
— the pool respawns them with per-slot exponential backoff under a bounded
restart budget (:mod:`repro.serve.supervisor`), the replacement re-primes
its artifact cache through the persistent store, and the dead worker's
in-flight tasks are requeued under the service's one :class:`RetryPolicy`
(:mod:`repro.serve.retry`) instead of erroring.  A worker death consumes
the task's retry budget, and a task whose budget ran out that way is
quarantined as ``poisoned`` with its attempt history in the
:class:`JobResult`.  Because sampling is seed-deterministic and the
solution sets dedup exactly, a job that survives a worker kill returns a
solution set bitwise identical to an undisturbed run.  An optional
:class:`~repro.serve.journal.JobJournal` records submissions, attempts and
completions for crash recovery (``repro-sat serve --resume``), and
:meth:`request_drain` initiates a graceful, signal-safe shutdown.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.signatures import formula_signature
from repro.core.solutions import SolutionSet
from repro.core.task import SamplingTask
from repro.serve.cache import ArtifactCache, DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from repro.serve.jobs import SamplingJob, config_to_dict, read_source
from repro.serve.journal import JobJournal, job_fingerprint
from repro.serve.portfolio import member_configs, merge_member_solutions
from repro.serve.queue import CoalesceTable, Dispatcher, coalesce_key
from repro.serve.retry import RetryPolicy
from repro.serve.supervisor import WorkerSupervisor
from repro.serve.workers import (
    MSG_DONE,
    MSG_ERROR,
    MSG_ROUND,
    execute_task,
    unpack_rows,
    worker_main,
)
from repro.utils.weakcache import BoundedLRUCache
from repro import obs

#: Service-side job/artifact accounting.  ``repro_serve_artifacts_total`` is
#: incremented in :meth:`SamplingService._finalize` from exactly the member
#: records that land in ``results.json``, so the registry's artifact-tier
#: counters and the written summaries agree by construction.
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


@dataclass
class JobResult:
    """Everything the service reports for one finished job."""

    job_id: str
    #: ``"done"``, ``"error"`` (every member failed), ``"poisoned"`` (every
    #: member failed and at least one was quarantined because a worker death
    #: spent its last attempt), or ``"interrupted"`` (a graceful drain checkpointed the
    #: job before it reached its target — re-runnable via ``--resume``).
    status: str
    #: Merged, exactly-deduplicated unique solutions (member-index order);
    #: a one-member job's is its member's set, with no merge.
    solutions: SolutionSet
    num_requested: int
    #: Wall-clock seconds from entry to :meth:`SamplingService.submit` (so
    #: source resolution counts) until the job was finalized.
    elapsed_seconds: float
    #: Aggregate statistics (see :meth:`SamplingService._finalize`).
    summary: Dict[str, object]
    #: Per-member records: config knobs, counts, status, worker, cache hit.
    members: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[str] = None
    #: Set on coalesced followers: the primary job that did the work.
    coalesced_with: Optional[str] = None

    @property
    def num_unique(self) -> int:
        """Unique solutions in the merged set."""
        return len(self.solutions)

    @property
    def throughput(self) -> float:
        """Unique solutions per second of service wall-clock time."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.num_unique else 0.0
        return self.num_unique / self.elapsed_seconds


@dataclass
class _TaskState:
    member_index: int
    config: SamplerConfig
    solutions: SolutionSet
    worker: Optional[int] = None
    done: bool = False
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    skipped: bool = False
    #: Attempt epoch: bumped on every requeue; messages carrying a stale
    #: epoch (buffered by a dead incarnation) are dropped.
    attempt: int = 0
    #: One record per *failed* attempt (error text, worker, died flag).
    attempts: List[Dict[str, object]] = field(default_factory=list)
    #: Whether the task sits in some worker's queue / is executing there.
    in_flight: bool = False
    #: Quarantined: a worker death spent the task's last attempt.
    poisoned: bool = False


@dataclass
class _JobState:
    job: SamplingJob
    job_id: str
    #: Signature of the *effective* (post-delta) formula — the artifact key.
    signature: str
    #: Raw-content digest of the source at submit (:func:`read_source`):
    #: a build re-reading the source refuses content that no longer has it.
    digest: str
    num_variables: int
    key: Optional[Tuple]
    #: Monotonic time :meth:`SamplingService.submit` was entered.
    start: float
    #: Signature of the base formula (equals ``signature`` for empty deltas);
    #: lets workers derive incremental artifacts from a warm parent.
    base_signature: str = ""
    #: 0-based projection columns of the job's task (``None`` unprojected).
    project: Optional[Tuple[int, ...]] = None
    tasks: List[_TaskState] = field(default_factory=list)
    #: Arrival-order merged pool driving the first-to-target cancellation
    #: (portfolio jobs only: one member has nothing to cancel).
    progress: Optional[SolutionSet] = None
    #: Each round's new rows in arrival order, for
    #: :meth:`SamplingService.stream`; read-only, and shared with the member
    #: sets that accepted them.
    stream_buffer: List[np.ndarray] = field(default_factory=list)
    cancelled: bool = False
    done: bool = False
    #: Set when a graceful drain checkpointed this job (finalizes as
    #: ``"interrupted"`` unless the target was already reached).
    drained: bool = False
    result: Optional[JobResult] = None
    #: Follower jobs resolved from this primary when it finishes.
    primary: Optional[str] = None
    #: Detached ``serve.job`` span (``None`` when tracing is off or the job
    #: coalesced onto a primary); workers parent their task spans under it.
    span: Optional[object] = None
    #: Journal fingerprint, computed once at submit (``None`` unjournaled).
    fingerprint: Optional[str] = None
    #: The base formula submit parsed to sign it, handed to the inline
    #: build so it is not parsed twice; taken when the job's run starts.
    formula: Optional[CNF] = None

    @property
    def tasks_remaining(self) -> int:
        return sum(1 for task in self.tasks if not task.done)


class _WorkerHandle:
    """One spawned worker process (a given incarnation of its slot) and its
    task/cancel queues."""

    def __init__(self, context, worker_id, result_queue,
                 cache_entries, cache_bytes, store_dir,
                 incarnation: int = 0, faults_spec: Optional[str] = None) -> None:
        self.worker_id = worker_id
        self.incarnation = incarnation
        #: Set once the service has processed this process's death (requeued
        #: its tasks, told the supervisor); a handled-dead handle is inert.
        self.dead_handled = False
        self.task_queue = context.Queue()
        self.cancel_queue = context.Queue()
        self.process = context.Process(
            target=worker_main,
            args=(
                worker_id,
                self.task_queue,
                result_queue,
                self.cancel_queue,
                cache_entries,
                cache_bytes,
                store_dir,
                incarnation,
                faults_spec,
            ),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}.{incarnation}",
        )
        self.process.start()


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
        from repro.store import resolve_store_dir

        self.num_workers = num_workers
        resolved_store = resolve_store_dir(store_dir)
        self.store_dir: Optional[str] = (
            str(resolved_store) if resolved_store is not None else None
        )
        self._jobs: Dict[str, _JobState] = {}
        self._pending_inline: List[str] = []
        self._coalesce = CoalesceTable()
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
        self._faults_spec = faults
        #: min-heap of (ready_time, job_id, member_index) awaiting re-dispatch.
        self._retry_ready: List[Tuple[float, str, int]] = []
        #: every group id ever cancelled — re-broadcast to respawned workers.
        self._cancelled_groups: Set[str] = set()
        self._drain_requested = False
        self._drain_applied = False
        if trace is True:
            trace = "mem"
        elif trace is False:
            trace = "off"
        elif trace is not None:
            trace = str(trace)
        self._trace_scope = obs.trace_scope(trace)
        self._trace_scope.__enter__()
        self._telemetry = obs.TelemetryAggregator()
        if num_workers == 0:
            store = None
            if self.store_dir is not None:
                from repro.store import ArtifactStore

                store = ArtifactStore(self.store_dir)
            self._inline_cache = ArtifactCache(
                max_entries=cache_entries, max_bytes=cache_bytes, store=store
            )
            self._workers: List[_WorkerHandle] = []
            self._dispatcher: Optional[Dispatcher] = None
            self._supervisor: Optional[WorkerSupervisor] = None
            self._result_queue = None
            self._context = None
        else:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            self._context = context
            self._cache_entries = cache_entries
            self._cache_bytes = cache_bytes
            self._inline_cache = None
            self._result_queue = context.Queue()
            self._dispatcher = Dispatcher(num_workers)
            self._supervisor = WorkerSupervisor(num_workers)
            self._workers = [
                _WorkerHandle(
                    context, worker_id, self._result_queue, cache_entries, cache_bytes, self.store_dir,
                    incarnation=0, faults_spec=faults,
                )
                for worker_id in range(num_workers)
            ]

    # -- lifecycle ----------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.dead_handled:
                continue
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
        for worker in self._workers:
            worker.task_queue.close()
            worker.cancel_queue.close()
        if self._result_queue is not None:
            self._result_queue.close()
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
        if self._drain_requested:
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
        state = _JobState(
            job=job,
            job_id=job_id,
            signature=signature,
            digest=digest,
            num_variables=num_variables,
            key=None,
            start=start,
            base_signature=base_signature,
            project=job.task.projection_columns(num_variables) or None,
        )
        job.task.weight_map(num_variables)  # fail fast on out-of-range weights
        self._jobs[job_id] = state
        if self._journal is not None:
            state.fingerprint = job_fingerprint(job, digest)
            self._journal.record(
                "submit",
                job=job_id,
                fingerprint=state.fingerprint,
                signature=signature,
                num_solutions=job.num_solutions,
            )

        if job.coalesce:
            key = coalesce_key(job, signature)
            primary = self._coalesce.attach(key, job_id)
            if primary is not None:
                state.primary = primary
                return job_id
            state.key = key
        if self.num_workers == 0:
            state.formula = formula  # pool workers run in another process

        if obs.tracing_enabled():
            # Detached: the job outlives this call and finishes from
            # _finalize; its id is what worker task spans parent under, and
            # the job id doubles as the trace id grouping the whole timeline.
            state.span = obs.tracer().begin(
                "serve.job",
                attributes={
                    "job_id": job_id,
                    "instance": str(job.source)[:120],
                    "num_solutions": job.num_solutions,
                    "source_hit": source_hit,
                },
                trace_id=job_id,
            )

        configs = (
            member_configs(job.config, job.portfolio)
            if job.portfolio
            else [job.config]
        )
        state.tasks = [
            _TaskState(
                member_index=index,
                config=member_config,
                solutions=SolutionSet(num_variables, project=state.project),
            )
            for index, member_config in enumerate(configs)
        ]
        if len(state.tasks) > 1:
            state.progress = SolutionSet(num_variables, project=state.project)

        if self.num_workers == 0:
            self._pending_inline.append(job_id)
        else:
            for task_state in state.tasks:
                self._dispatch_or_defer(state, task_state)
        return job_id

    def run_manifest(self, jobs: Sequence[SamplingJob]) -> List[JobResult]:
        """Submit a whole manifest and gather results in submission order."""
        job_ids = [self.submit(job) for job in jobs]
        return [self.result(job_id) for job_id in job_ids]

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
        primary = self._resolve_primary(state)
        if not primary.done:
            if self.num_workers == 0:
                self._run_inline_until(primary.job_id)
            else:
                self._pump_until(primary.job_id, timeout)
        return self._resolve_result(state)

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
        state = self._state(job_id)
        primary = self._resolve_primary(state)
        cursor = 0
        while True:
            while cursor < len(primary.stream_buffer):
                yield primary.stream_buffer[cursor]
                cursor += 1
            if primary.done:
                return
            if self.num_workers == 0:
                self._run_inline_until(primary.job_id)
            else:
                self._pump(block=True)

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
        state = self._state(job_id)
        primary = self._resolve_primary(state)
        if not primary.done:
            raise RuntimeError(f"job {job_id!r} has not finished; collect it first")
        result = self._resolve_result(state)
        for other in self._jobs.values():
            if other.primary == job_id:
                self._resolve_result(other)
        del self._jobs[job_id]
        return result

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Inline-mode artifact-cache counters (``None`` with a worker pool:
        each worker owns its cache and reports per-task hits in the member
        records instead)."""
        if self._inline_cache is None:
            return None
        return self._inline_cache.stats()

    @property
    def telemetry(self) -> obs.TelemetryAggregator:
        """The aggregator merging worker telemetry snapshots (see
        :mod:`repro.obs.snapshot`)."""
        return self._telemetry

    def merged_metrics(self) -> Dict[str, Dict[str, object]]:
        """One metrics dump covering this process *and* every worker seen so
        far (each worker's latest cumulative snapshot — exact totals)."""
        return self._telemetry.merged_metrics()

    # -- internals: common message handling ---------------------------------------------
    def _state(self, job_id: str) -> _JobState:
        state = self._jobs.get(job_id)
        if state is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return state

    def _resolve_primary(self, state: _JobState) -> _JobState:
        return self._state(state.primary) if state.primary else state

    def _task_payload(self, state: _JobState, task_state: _TaskState) -> Dict[str, object]:
        payload = {
            "key": (state.job_id, task_state.member_index),
            "group": state.job_id,
            "source": state.job.source,
            "digest": state.digest,
            "signature": state.signature,
            "base_signature": state.base_signature,
            "task": None if state.job.task.is_default else state.job.task.to_dict(),
            "config": config_to_dict(task_state.config),
            "num_solutions": state.job.num_solutions,
            "attempt": task_state.attempt,
        }
        if state.span is not None:
            payload["trace"] = True
            payload["trace_parent"] = state.span.span_id
            payload["trace_id"] = state.job_id
        return payload

    def _handle_queued(self, kind: str, key: Tuple, payload: Dict[str, object]) -> None:
        """Handle one message read from the pool's result queue, whose round
        rows a worker bit-packed for the trip."""
        if kind == MSG_ROUND:
            payload["rows"] = unpack_rows(*payload["rows"])
        self._handle_message(kind, key, payload)

    def _handle_message(self, kind: str, key: Tuple, payload: Dict[str, object]) -> None:
        """Apply one worker message; a round carries its new rows as a matrix.

        A row is deduplicated once.  The sampler's set already made a round's
        rows unique within its attempt, so attempt 0 appends them to the
        member's set as they are (:meth:`SolutionSet.extend_unique`).  A
        retried attempt replays its predecessor's deterministic rounds — a
        deadline-halted round need not be — so its rows go through
        :meth:`SolutionSet.add_batch`, and only the rows the member's set
        accepted are streamed.
        """
        job_id, member_index = key
        state = self._jobs.get(job_id)
        if state is None or state.done:
            return  # late message for a finished/forgotten job
        task_state = state.tasks[member_index]
        if task_state.done:
            return  # duplicate terminal message (e.g. a buffered straggler)
        attempt = payload.get("attempt")
        if attempt is not None and attempt != task_state.attempt:
            # A dead incarnation's buffered message arriving after the task
            # was requeued: the live attempt supersedes it.
            return
        if kind == MSG_ROUND:
            rows = payload["rows"]
            # The member set and the stream buffer share the array.
            rows.flags.writeable = False
            solutions = task_state.solutions
            if task_state.attempt == 0:
                solutions.extend_unique(rows)
            else:
                before = len(solutions)
                solutions.add_batch(rows)
                rows = solutions.matrix_since(before)
                rows.flags.writeable = False
            if rows.shape[0]:
                state.stream_buffer.append(rows)
                if state.progress is not None:
                    state.progress.add_batch(rows)
            self._maybe_cancel_rest(state)
        elif kind == MSG_DONE:
            task_state.done = True
            task_state.in_flight = False
            task_state.payload = payload
            self._telemetry.absorb(payload.get("telemetry"))
            if payload.get("worker") is not None:
                task_state.worker = payload["worker"]
            if payload.get("summary") is None and payload.get("cancelled"):
                task_state.skipped = True
            if self._dispatcher is not None and task_state.worker is not None:
                self._dispatcher.record_done(task_state.worker)
            if (
                self._supervisor is not None
                and task_state.worker is not None
                and payload.get("summary") is not None
            ):
                # A completed task ends its worker slot's crash streak.
                self._supervisor.record_success(task_state.worker)
            self._maybe_cancel_rest(state)
            if state.tasks_remaining == 0:
                self._finalize(state)
        elif kind == MSG_ERROR:
            task_state.in_flight = False
            task_state.payload = payload
            self._telemetry.absorb(payload.get("telemetry"))
            if payload.get("worker") is not None:
                task_state.worker = payload["worker"]
            if self._dispatcher is not None and task_state.worker is not None:
                self._dispatcher.record_done(task_state.worker)
            self._record_task_failure(
                state,
                task_state,
                payload.get("error", "unknown worker error"),
                died=False,
            )
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown worker message kind {kind!r}")

    def _maybe_cancel_rest(self, state: _JobState) -> None:
        """First-to-target: cancel the job's remaining members once the
        merged pool holds enough unique solutions."""
        if state.cancelled or len(state.tasks) <= 1:
            return
        if state.tasks_remaining == 0:
            return
        if len(state.progress) >= state.job.num_solutions:
            state.cancelled = True
            self._broadcast_cancel(state.job_id)

    def _broadcast_cancel(self, group: str) -> None:
        """Tell every live worker ``group`` is cancelled; remember it so
        respawned workers are told as well."""
        self._cancelled_groups.add(group)
        for worker in self._workers:
            if worker.dead_handled:
                continue
            try:
                worker.cancel_queue.put(group)
            except (OSError, ValueError):
                pass

    def _finalize(self, state: _JobState) -> None:
        if self._drain_requested:
            self._apply_drain()
        members = []
        any_ok = False
        for task_state in state.tasks:
            config = task_state.config
            record: Dict[str, object] = {
                "member_index": task_state.member_index,
                "seed": config.seed,
                "learning_rate": config.learning_rate,
                "batch_size": config.batch_size,
                "unique_solutions": len(task_state.solutions),
                "worker": task_state.worker,
            }
            payload = task_state.payload or {}
            summary = payload.get("summary") or {}
            if task_state.error is not None:
                record["status"] = "poisoned" if task_state.poisoned else "error"
                record["error"] = task_state.error
            else:
                any_ok = True
                if task_state.skipped:
                    record["status"] = "cancelled"
                elif summary.get("stopped_early"):
                    record["status"] = "cancelled"
                else:
                    record["status"] = "done"
                record["generated"] = summary.get("generated", 0)
                record["valid"] = summary.get("valid", 0)
                record["seconds"] = summary.get("seconds", 0.0)
                record["rounds"] = summary.get("rounds", 0)
                record["timed_out"] = summary.get("timed_out", False)
                record["stopped_early"] = bool(
                    task_state.skipped or summary.get("stopped_early", False)
                )
                record["task"] = payload.get("task", state.job.task.kind())
                record["projected_unique"] = summary.get(
                    "projected_unique", len(task_state.solutions)
                )
                record["incremental_artifact"] = payload.get(
                    "incremental_artifact", False
                )
                record["cache_hit"] = payload.get("cache_hit")
                record["build_seconds"] = payload.get("build_seconds", 0.0)
                record["transform_seconds"] = payload.get("transform_seconds", 0.0)
                record["kernel_tier"] = payload.get("kernel_tier")
                record["compile_seconds"] = payload.get("compile_seconds", 0.0)
                # Which tier satisfied the artifact ("built" / "memory" /
                # "store"), the store-load latency, and the worker's cache/
                # store counters at task end — see repro.store.
                record["artifact_source"] = payload.get("artifact_source")
                record["load_seconds"] = payload.get("load_seconds", 0.0)
                if payload.get("cache_stats") is not None:
                    record["cache_stats"] = payload["cache_stats"]
            if task_state.attempts:
                # The failed-attempt history (worker, error, died) and how
                # many requeues the member consumed.
                record["attempts"] = list(task_state.attempts)
                record["retries"] = task_state.attempt
            members.append(record)

        if len(state.tasks) > 1:
            merged = merge_member_solutions(
                state.num_variables,
                [
                    None if task.error is not None else task.solutions.to_matrix()
                    for task in state.tasks
                ],
                project=state.project,
            )
        elif any_ok:
            # One member: its set is the result; there is nothing to merge.
            merged = state.tasks[0].solutions
        else:
            merged = SolutionSet(state.num_variables, project=state.project)
        elapsed = time.perf_counter() - state.start
        status = "done" if any_ok else "error"
        if not any_ok and any(task_state.poisoned for task_state in state.tasks):
            status = "poisoned"
        if (
            state.drained
            and status == "done"
            and len(merged) < state.job.num_solutions
        ):
            # A graceful drain checkpointed the job short of its target.
            status = "interrupted"
        error = None
        if status in ("error", "poisoned"):
            error = "; ".join(
                str(member.get("error")) for member in members if "error" in member
            )
        summary = {
            "job_id": state.job_id,
            "unique_solutions": len(merged),
            # Under a projected task the merge dedups on the projection, so
            # this counts distinct projected patterns (= unique_solutions;
            # surfaced separately so results.json is explicit about it).
            "projected_unique": len(merged),
            "task": state.job.task.kind(),
            "stopped_early": any(
                member.get("stopped_early", False) for member in members
            ),
            "incremental_artifacts": sum(
                1 for member in members if member.get("incremental_artifact")
            ),
            "requested": state.job.num_solutions,
            "generated": sum(member.get("generated", 0) for member in members),
            "valid": sum(member.get("valid", 0) for member in members),
            "seconds": elapsed,
            "throughput": (len(merged) / elapsed) if elapsed > 0 else 0.0,
            "members": len(members),
            "cancelled_members": sum(
                1 for member in members if member.get("status") == "cancelled"
            ),
            "cache_hits": sum(1 for member in members if member.get("cache_hit")),
            # Artifact-tier accounting: how many members compiled from
            # scratch ("cold_builds"), loaded from the persistent store, or
            # hit a worker's memory cache.  With a shared store and
            # single-flight leases, cold_builds for one formula stays at 1
            # across the whole pool.
            "cold_builds": sum(
                1 for member in members if member.get("artifact_source") == "built"
            ),
            "store_hits": sum(
                1 for member in members if member.get("artifact_source") == "store"
            ),
            "memory_hits": sum(
                1 for member in members if member.get("artifact_source") == "memory"
            ),
            "store_load_seconds": sum(
                member.get("load_seconds", 0.0) for member in members
            ),
            "build_seconds": sum(member.get("build_seconds", 0.0) for member in members),
            "transform_seconds": sum(
                member.get("transform_seconds", 0.0) for member in members
            ),
            # One-time native kernel build cost incurred by this job's
            # members, and the tiers that ran — kept separate from the
            # sampling seconds so cold and warm runs stay comparable.
            "compile_seconds": sum(
                member.get("compile_seconds", 0.0) for member in members
            ),
            "kernel_tiers": sorted(
                {
                    str(member["kernel_tier"])
                    for member in members
                    if member.get("kernel_tier") is not None
                }
            ),
            "workers": sorted(
                {member["worker"] for member in members if member["worker"] is not None}
            ),
            # Resilience accounting: total requeued attempts across members
            # and how many members were quarantined as poisoned.
            "retries": sum(task_state.attempt for task_state in state.tasks),
            "poisoned_members": sum(
                1 for member in members if member.get("status") == "poisoned"
            ),
            "status": status,
        }
        state.result = JobResult(
            job_id=state.job_id,
            status=status,
            solutions=merged,
            num_requested=state.job.num_solutions,
            elapsed_seconds=elapsed,
            summary=summary,
            members=members,
            error=error,
        )
        state.done = True
        state.progress = None  # the cancellation pool is dead weight now
        _SERVE_JOBS.inc(1.0, status)
        for member in members:
            source = member.get("artifact_source")
            if source is not None:
                _SERVE_ARTIFACTS.inc(1.0, str(source))
            tier = member.get("kernel_tier")
            if tier is not None:
                _SERVE_KERNEL_TIERS.inc(1.0, str(tier))
        if state.span is not None:
            state.span.set("status", status)
            state.span.set("unique_solutions", len(merged))
            state.span.finish()
            state.span = None
        if state.key is not None:
            self._coalesce.release(state.key, state.job_id)
        self._journal_done(state)

    def _journal_done(self, state: _JobState) -> None:
        """WAL the finished job (fingerprint + full result row) so a resumed
        run can skip it."""
        if self._journal is None or state.result is None:
            return
        from repro.io.results_io import job_result_row

        self._journal.record(
            "done",
            job=state.job_id,
            fingerprint=state.fingerprint,
            status=state.result.status,
            result=job_result_row(state.result),
        )

    def _resolve_result(self, state: _JobState) -> JobResult:
        primary = self._resolve_primary(state)
        assert primary.result is not None
        if primary is state:
            return primary.result
        base = primary.result
        if state.result is None:
            state.result = JobResult(
                job_id=state.job_id,
                status=base.status,
                solutions=base.solutions,
                num_requested=base.num_requested,
                elapsed_seconds=base.elapsed_seconds,
                summary={**base.summary, "job_id": state.job_id, "coalesced_with": primary.job_id},
                members=base.members,
                error=base.error,
                coalesced_with=primary.job_id,
            )
            state.done = True
            self._journal_done(state)
        return state.result

    # -- internals: inline execution -----------------------------------------------------
    def _run_inline_until(self, job_id: str) -> None:
        """Run pending inline jobs in FIFO order until ``job_id`` is done."""
        while not self._state(job_id).done:
            if not self._pending_inline:
                raise RuntimeError(
                    f"job {job_id!r} cannot finish: nothing pending (already "
                    "consumed by an error path?)"
                )
            next_id = self._pending_inline.pop(0)
            self._run_inline_job(self._state(next_id))

    def _run_inline_job(self, state: _JobState) -> None:
        if self._drain_requested:
            self._apply_drain()
        formula, state.formula = state.formula, None
        while True:
            # Re-scan: a retryable failure leaves its task not-done with a
            # bumped attempt epoch, and the next sweep re-runs it (inline
            # retries are immediate — there is no pool to back off against).
            pending = [task for task in state.tasks if not task.done]
            if not pending:
                return
            for task_state in pending:
                task_state.worker = 0
                if state.cancelled or state.drained:
                    # First-to-target already satisfied (or a drain was
                    # requested): skip without work, the same way a pool
                    # worker skips a task whose group flag is set.
                    self._skip_task(state, task_state, worker=0)
                    continue
                execute_task(
                    self._task_payload(state, task_state),
                    self._inline_cache,
                    should_stop=lambda: state.cancelled or self._drain_requested,
                    emit=self._handle_message,
                    worker_id=0,
                    formula=formula,
                )

    def _skip_task(
        self, state: _JobState, task_state: _TaskState, worker: Optional[int]
    ) -> None:
        """Finish a task the job no longer needs as a cancelled, work-free
        ``MSG_DONE`` — the message a worker sends when it skips one."""
        self._handle_message(
            MSG_DONE,
            (state.job_id, task_state.member_index),
            {
                "summary": None,
                "cancelled": True,
                "worker": worker,
                "attempt": task_state.attempt,
                "cache_hit": None,
                "build_seconds": 0.0,
                "elapsed_seconds": 0.0,
                "kernel_tier": None,
                "compile_seconds": 0.0,
                "artifact_source": None,
            },
        )

    # -- internals: worker-pool dispatch -------------------------------------------------
    def _dispatch_task(self, state: _JobState, task_state: _TaskState) -> None:
        worker = self._dispatcher.choose(state.signature)
        self._dispatcher.record_dispatch(worker, state.signature)
        task_state.worker = worker
        task_state.in_flight = True
        self._workers[worker].task_queue.put(self._task_payload(state, task_state))
        if self._journal is not None:
            self._journal.record(
                "attempt",
                job=state.job_id,
                member=task_state.member_index,
                attempt=task_state.attempt,
                worker=worker,
            )

    def _dispatch_or_defer(self, state: _JobState, task_state: _TaskState) -> None:
        """Dispatch now, or park on the retry heap until a slot respawns."""
        if self._dispatcher.has_online:
            self._dispatch_task(state, task_state)
        else:
            heapq.heappush(
                self._retry_ready,
                (time.monotonic(), state.job_id, task_state.member_index),
            )

    def _record_task_failure(
        self, state: _JobState, task_state: _TaskState, error: str, *, died: bool
    ) -> None:
        """One attempt failed: requeue under the service's retry policy, or
        make the failure terminal (quarantined as *poisoned* when a worker
        death spent the last attempt)."""
        now = time.monotonic()
        task_state.in_flight = False
        task_state.attempts.append(
            {
                "attempt": task_state.attempt,
                "worker": task_state.worker,
                "error": error,
                "died": died,
            }
        )
        attempts_used = task_state.attempt + 1
        retryable = attempts_used < self._retry_policy.max_attempts
        if retryable and not self._closed and not state.cancelled and not state.drained:
            task_state.attempt += 1
            _SERVE_RETRIES.inc(1.0, "died" if died else "error")
            if self._journal is not None:
                self._journal.record(
                    "retry",
                    job=state.job_id,
                    member=task_state.member_index,
                    attempt=task_state.attempt,
                    cause="died" if died else "error",
                )
            if self._dispatcher is None:
                return  # the inline sweep re-runs the task immediately
            heapq.heappush(
                self._retry_ready,
                (now + self._retry_policy.delay_for(attempts_used), state.job_id,
                 task_state.member_index),
            )
            return
        task_state.done = True
        task_state.error = error
        task_state.poisoned = died
        if state.tasks_remaining == 0:
            self._finalize(state)

    # -- graceful drain ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Ask for a graceful drain.  Signal-handler safe: only sets a flag.

        On the next pump (or inline sweep) in-flight sampling is cancelled
        at its next checkpoint, queued work is skipped, unfinished jobs
        finalize — as ``"interrupted"`` when short of their target — and new
        submissions are refused.  Callers blocked in :meth:`result` get the
        checkpointed result back instead of hanging.
        """
        self._drain_requested = True

    def _apply_drain(self) -> None:
        if self._drain_applied:
            return
        self._drain_applied = True
        if self._journal is not None:
            self._journal.record("drain")
        for state in self._jobs.values():
            if state.done:
                continue
            state.drained = True
            if not state.cancelled:
                state.cancelled = True
                self._broadcast_cancel(state.job_id)

    # -- internals: worker-pool pumping --------------------------------------------------
    def _pump(self, block: bool) -> bool:
        """Process queued worker messages; returns whether any arrived.

        With ``block`` the call waits — on the result-queue pipe *and* on
        every live worker's process sentinel, so a worker death wakes it
        immediately instead of on the next poll tick — at most until the
        next housekeeping deadline (retry due, respawn due, or one poll
        interval).  Every pump ends with supervision housekeeping: dead
        workers are detected and their tasks requeued, due respawns and
        retries happen, and a requested drain is applied.
        """
        received = self._drain_message_queue()
        if block and not received:
            from multiprocessing.connection import wait as mp_wait

            sentinels = [
                worker.process.sentinel
                for worker in self._workers
                if not worker.dead_handled
            ]
            try:
                mp_wait(
                    [self._result_queue._reader] + sentinels,
                    timeout=self._wait_timeout(),
                )
            except OSError:  # pragma: no cover - sentinel raced a death
                time.sleep(0.001)
            received = self._drain_message_queue()
        self._check_workers_alive()
        self._maintenance()
        return received

    def _drain_message_queue(self) -> bool:
        received = False
        while True:
            try:
                kind, key, payload = self._result_queue.get_nowait()
            except Empty:
                return received
            received = True
            self._handle_queued(kind, key, payload)

    def _wait_timeout(self) -> float:
        """How long the pump may sleep before housekeeping is due."""
        timeout = _POLL_SECONDS
        now = time.monotonic()
        if self._retry_ready:
            timeout = min(timeout, self._retry_ready[0][0] - now)
        deadline = self._supervisor.next_deadline()
        if deadline is not None:
            timeout = min(timeout, deadline - now)
        return max(timeout, 0.001)

    def _pump_until(self, job_id: str, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not self._state(job_id).done:
            if deadline is not None and time.perf_counter() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} did not finish within {timeout} seconds"
                )
            self._pump(block=True)

    # -- internals: supervision ----------------------------------------------------------
    def _check_workers_alive(self) -> None:
        for handle in self._workers:
            if handle.dead_handled or handle.process.is_alive():
                continue
            self._on_worker_death(handle)

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Handle one worker process death exactly once: take the slot out
        of rotation, requeue its in-flight tasks, schedule the respawn."""
        handle.dead_handled = True
        slot = handle.worker_id
        exitcode = handle.process.exitcode
        _SERVE_WORKER_EVENTS.inc(1.0, "death")
        if self._journal is not None:
            self._journal.record(
                "worker",
                event="death",
                worker=slot,
                incarnation=handle.incarnation,
                exitcode=exitcode,
            )
        self._dispatcher.set_offline(slot)
        error = f"worker {slot} died (exit code {exitcode})"
        for state in list(self._jobs.values()):
            if state.done:
                continue
            for task_state in state.tasks:
                if (
                    not task_state.done
                    and task_state.in_flight
                    and task_state.worker == slot
                ):
                    self._record_task_failure(state, task_state, error, died=True)
        if not self._supervisor.is_failed(slot):
            restart_at = self._supervisor.record_death(slot, time.monotonic())
            if restart_at is None:
                # Restart budget spent: the slot stays down for good.
                _SERVE_WORKER_EVENTS.inc(1.0, "abandoned")
                if self._journal is not None:
                    self._journal.record(
                        "worker",
                        event="abandoned",
                        worker=slot,
                        incarnation=handle.incarnation,
                    )

    def _respawn(self, slot: int) -> None:
        incarnation = self._supervisor.record_respawn(slot)
        handle = _WorkerHandle(
            self._context, slot, self._result_queue, self._cache_entries, self._cache_bytes, self.store_dir,
            incarnation=incarnation, faults_spec=self._faults_spec,
        )
        self._workers[slot] = handle
        self._dispatcher.set_online(slot)
        # A fresh process starts with an empty cancellation set; replay it so
        # tasks of already-cancelled groups are skipped, not re-sampled.
        for group in sorted(self._cancelled_groups):
            try:
                handle.cancel_queue.put(group)
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        _SERVE_WORKER_EVENTS.inc(1.0, "respawn")
        if self._journal is not None:
            self._journal.record(
                "worker", event="respawn", worker=slot, incarnation=incarnation
            )

    def _maintenance(self) -> None:
        """Pool housekeeping after every pump: apply a requested drain,
        respawn due slots, re-dispatch due retries, and fail what's left
        when no worker can ever come back."""
        if self._drain_requested:
            self._apply_drain()
        now = time.monotonic()
        for slot in self._supervisor.due(now):
            self._respawn(slot)
        while self._retry_ready and (
            self._retry_ready[0][0] <= now or self._drain_applied
        ):
            _, job_id, member_index = heapq.heappop(self._retry_ready)
            state = self._jobs.get(job_id)
            if state is None or state.done:
                continue
            task_state = state.tasks[member_index]
            if task_state.done:
                continue
            if state.cancelled or state.drained:
                # The job no longer needs this member: account it the same
                # way a worker accounts a cancelled skip.
                self._skip_task(state, task_state, worker=None)
                continue
            if not self._dispatcher.has_online:
                heapq.heappush(self._retry_ready, (now, job_id, member_index))
                break
            self._dispatch_task(state, task_state)
        if not self._dispatcher.has_online and not self._supervisor.any_pending():
            self._fail_stranded()

    def _fail_stranded(self) -> None:
        """Every worker is gone and none will return: finish what's left as
        errors instead of letting callers hang."""
        for state in list(self._jobs.values()):
            if state.done:
                continue
            for task_state in state.tasks:
                if not task_state.done:
                    task_state.done = True
                    task_state.in_flight = False
                    if task_state.error is None:
                        task_state.error = (
                            "no workers available (restart budget exhausted)"
                        )
            if not state.done:
                self._finalize(state)
