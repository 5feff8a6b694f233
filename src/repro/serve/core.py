"""The serving state machine: one scheduler, with no I/O of its own.

:class:`SchedulerCore` makes every scheduling decision of the service —
coalescing, admission, dispatch, first-to-target cancellation, retry,
supervision, drain and finalization.  Events go in as method calls
(:meth:`~SchedulerCore.submit`, a worker :meth:`~SchedulerCore.message`,
:meth:`~SchedulerCore.worker_died`, :meth:`~SchedulerCore.tick`,
:meth:`~SchedulerCore.request_drain`, :meth:`~SchedulerCore.forget`);
commands come out of :meth:`~SchedulerCore.take` in the order they were
decided: :class:`Dispatch`, :class:`Cancel`, :class:`Respawn`, a journal
:class:`Record`, and :class:`Finished` for a job whose result is ready.

The core never reads a clock (an event that needs the time is given
``now``), touches a queue or a process, or writes a file.  The service
(:mod:`repro.serve.service`) drives it with a pool driver or an inline
driver, and ``tests/serve/test_core_machine.py`` drives it with a fake
executor and a fake clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.cnf.formula import CNF
from repro.core.config import AdmissionError, SamplerConfig, check_admission
from repro.core.solutions import SolutionSet
from repro.serve.jobs import SamplingJob, config_to_dict
from repro.serve.portfolio import member_configs, merge_member_solutions
from repro.serve.queue import CoalesceTable, Dispatcher, coalesce_key
from repro.serve.retry import RetryPolicy
from repro.serve.supervisor import WorkerSupervisor

#: Message kinds a worker emits.
MSG_ROUND = "round"
MSG_DONE = "done"
MSG_ERROR = "error"


@dataclass
class JobResult:
    """Everything the service reports for one finished job."""

    job_id: str
    #: ``"done"``, ``"error"`` (every member failed, or admission refused
    #: the job), ``"poisoned"`` (every member failed and at least one was
    #: quarantined because a worker death spent its last attempt), or
    #: ``"interrupted"`` (a graceful drain checkpointed the job before it
    #: reached its target — re-runnable via ``--resume``).
    status: str
    #: Merged, exactly-deduplicated unique solutions (member-index order);
    #: a one-member job's is its member's set, with no merge.
    solutions: SolutionSet
    num_requested: int
    #: Wall-clock seconds from entry to :meth:`SamplingService.submit` (so
    #: source resolution counts) until the job was finalized.
    elapsed_seconds: float
    #: Aggregate statistics (see :meth:`SchedulerCore._finalize`).
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
class TaskState:
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
    #: Whether the task sits in some slot's queue / is executing there.
    in_flight: bool = False
    #: Quarantined: a worker death spent the task's last attempt.
    poisoned: bool = False


@dataclass
class JobState:
    job: SamplingJob
    job_id: str
    #: Signature of the *effective* (post-delta) formula — the artifact key.
    signature: str
    #: Raw-content digest of the source at submit
    #: (:func:`~repro.serve.jobs.read_source`): a build re-reading the
    #: source refuses content that no longer has it.
    digest: str
    num_variables: int
    #: When :meth:`SamplingService.submit` was entered (the drivers' clock).
    start: float
    #: Signature of the base formula (equals ``signature`` for empty deltas);
    #: lets workers derive incremental artifacts from a warm parent.
    base_signature: str = ""
    #: 0-based projection columns of the job's task (``None`` unprojected).
    project: Optional[Tuple[int, ...]] = None
    #: Journal fingerprint, computed once at submit (``None`` unjournaled).
    fingerprint: Optional[str] = None
    #: Coalesce identity of a primary (``None`` for followers and jobs with
    #: ``coalesce=False``).
    key: Optional[Tuple] = None
    #: Submit order; the inline driver runs jobs in it.
    seq: int = 0
    tasks: List[TaskState] = field(default_factory=list)
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
    #: Why admission refused the job (it then ran no task).
    refused: Optional[str] = None
    result: Optional[JobResult] = None
    #: The primary this follower job resolves from when it finishes.
    primary: Optional[str] = None
    #: Detached ``serve.job`` span, owned by the service (``None`` when
    #: tracing is off or the job coalesced onto a primary); workers parent
    #: their task spans under its id.
    span: Optional[object] = None
    #: The base formula submit parsed to sign it, kept by the inline driver
    #: so the build does not parse it again; taken when the job's run starts.
    formula: Optional[CNF] = None

    @property
    def tasks_remaining(self) -> int:
        return sum(1 for task in self.tasks if not task.done)


class Dispatch(NamedTuple):  # run ``task`` of ``job`` on ``slot``
    slot: int
    job: JobState
    task: TaskState


class Cancel(NamedTuple):  # every slot stops ``group``'s tasks at a checkpoint
    group: str


class Respawn(NamedTuple):  # start ``slot`` again, telling it the cancelled groups
    slot: int
    incarnation: int
    cancelled: Tuple[str, ...]


class Record(NamedTuple):  # a journal record; a "done" one's result is the JobResult
    type: str
    fields: Dict[str, object]


class Finished(NamedTuple):  # ``job.result`` is set: the job is terminal
    job: JobState


def task_payload(state: JobState, task: TaskState) -> Dict[str, object]:
    """The picklable task description a slot executes
    (:func:`repro.serve.workers.execute_task`)."""
    payload = {
        "key": (state.job_id, task.member_index),
        "group": state.job_id,
        "source": state.job.source,
        "digest": state.digest,
        "signature": state.signature,
        "base_signature": state.base_signature,
        "task": None if state.job.task.is_default else state.job.task.to_dict(),
        "config": config_to_dict(task.config),
        "num_solutions": state.job.num_solutions,
        "attempt": task.attempt,
    }
    if state.span is not None:
        payload["trace"] = True
        payload["trace_parent"] = state.span.span_id
        payload["trace_id"] = state.job_id
    return payload


class SchedulerCore:
    """The job state machine over ``num_slots`` worker slots (see the module
    docstring); ``merge`` merges a portfolio's member matrices."""

    def __init__(
        self,
        num_slots: int,
        retry: RetryPolicy,
        merge: Callable[..., SolutionSet] = merge_member_solutions,
    ) -> None:
        self.jobs: Dict[str, JobState] = {}
        self.retry = retry
        self._merge = merge
        self._coalesce = CoalesceTable()
        self._dispatcher = Dispatcher(num_slots)
        self._supervisor = WorkerSupervisor(num_slots)
        #: min-heap of (due time, job_id, member_index) of tasks awaiting
        #: dispatch: new ones (due at once), retries and those parked while
        #: no slot is online.
        self._ready: List[Tuple[float, str, int]] = []
        #: every group ever cancelled — replayed to respawned slots.
        self._cancelled: Set[str] = set()
        #: Set by :meth:`request_drain` (signal-handler safe); applied by
        #: the next :meth:`tick` or finalization.
        self.drain_requested = False
        self._drain_applied = False
        self._closed = False
        self._seq = 0
        self._outbox: List[object] = []

    # -- events -------------------------------------------------------------------------
    def submit(self, state: JobState, now: float) -> None:
        """Admit a job: coalesce it onto an identical one in flight, or
        refuse it, or dispatch its members."""
        self.jobs[state.job_id] = state
        state.seq = self._seq
        self._seq += 1
        job = state.job
        self._record("submit", job=state.job_id, fingerprint=state.fingerprint,
                     signature=state.signature, num_solutions=job.num_solutions)
        if job.coalesce:
            key = coalesce_key(job, state.signature)
            primary = self._coalesce.attach(key, state.job_id)
            if primary is not None:
                state.primary = primary
                return
            state.key = key
        configs = member_configs(job.config, job.portfolio) if job.portfolio else [job.config]
        state.tasks = [
            TaskState(index, config, SolutionSet(state.num_variables, project=state.project))
            for index, config in enumerate(configs)
        ]
        try:
            check_admission(state.num_variables, max(config.batch_size for config in configs))
        except AdmissionError as error:
            state.refused = str(error)
            for task in state.tasks:
                task.done = True
                task.error = state.refused
            self._finalize(state, now)
            return
        if len(state.tasks) > 1:
            state.progress = SolutionSet(state.num_variables, project=state.project)
        for task in state.tasks:
            heapq.heappush(self._ready, (now, state.job_id, task.member_index))
        self.tick(now)

    def message(self, kind: str, key: Tuple, payload: Dict[str, object], now: float) -> None:
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
        state = self.jobs.get(job_id)
        if state is None or state.done:
            return  # late message for a finished/forgotten job
        task = state.tasks[member_index]
        if task.done:
            return  # duplicate terminal message (e.g. a buffered straggler)
        attempt = payload.get("attempt")
        if attempt is not None and attempt != task.attempt:
            # A dead incarnation's buffered message arriving after the task
            # was requeued: the live attempt supersedes it.
            return
        if kind == MSG_ROUND:
            rows = payload["rows"]
            # The member set and the stream buffer share the array.
            rows.flags.writeable = False
            solutions = task.solutions
            if task.attempt == 0:
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
            return
        task.in_flight = False
        task.payload = payload
        if payload.get("worker") is not None:
            task.worker = payload["worker"]
        if task.worker is not None:
            self._dispatcher.record_done(task.worker)
        if kind == MSG_ERROR:
            self._fail(state, task, payload.get("error", "unknown worker error"), False, now)
            return
        task.done = True
        if payload.get("summary") is None:
            # A slot skipped the task: its group was cancelled first.
            task.skipped = bool(payload.get("cancelled"))
        elif task.worker is not None:
            # A completed task ends its worker slot's crash streak.
            self._supervisor.record_success(task.worker)
        self._maybe_cancel_rest(state)
        if state.tasks_remaining == 0:
            self._finalize(state, now)

    def worker_died(self, slot: int, exitcode: Optional[int], now: float) -> None:
        """Slot ``slot``'s process died: take it out of rotation, fail its
        in-flight tasks into the retry policy, schedule its respawn."""
        incarnation = self._supervisor.incarnation(slot)
        self._record("worker", event="death", worker=slot, incarnation=incarnation,
                     exitcode=exitcode)
        self._dispatcher.set_offline(slot)
        error = f"worker {slot} died (exit code {exitcode})"
        for state in list(self.jobs.values()):
            if state.done:
                continue
            for task in state.tasks:
                if not task.done and task.in_flight and task.worker == slot:
                    self._fail(state, task, error, True, now)
        if not self._supervisor.is_failed(slot):
            if self._supervisor.record_death(slot, now) is None:
                # Restart budget spent: the slot stays down for good.
                self._record("worker", event="abandoned", worker=slot, incarnation=incarnation)

    def tick(self, now: float) -> None:
        """Time moved to ``now``: apply a requested drain, respawn due
        slots, dispatch due tasks, and fail what is left when no slot can
        ever come back."""
        if self.drain_requested:
            self._apply_drain()
        for slot in self._supervisor.due(now):
            self._respawn(slot)
        while self._ready and (self._ready[0][0] <= now or self._drain_applied):
            _, job_id, member_index = heapq.heappop(self._ready)
            state = self.jobs.get(job_id)
            if state is None or state.done:
                continue
            task = state.tasks[member_index]
            if task.done:
                continue
            if state.cancelled or state.drained:
                # The job no longer needs this member: it ends cancelled,
                # with no work, as a slot's skip would.
                task.done = task.skipped = True
                task.payload = None
                if state.tasks_remaining == 0:
                    self._finalize(state, now)
                continue
            if not self._dispatcher.has_online:
                heapq.heappush(self._ready, (now, job_id, member_index))
                break
            self._dispatch(state, task)
        if not self._dispatcher.has_online and not self._supervisor.any_pending():
            self._fail_stranded(now)

    def request_drain(self) -> None:
        """Ask for a graceful drain.  Signal-handler safe: only sets a flag."""
        self.drain_requested = True

    def close(self) -> None:
        """The service closed: a failure from now on is final, not retried."""
        self._closed = True

    def forget(self, job_id: str) -> JobResult:
        """Drop a finished job (its followers are resolved first)."""
        state = self.state(job_id)
        if state.result is None and not self.primary_of(state).done:
            raise RuntimeError(f"job {job_id!r} has not finished; collect it first")
        result = self.result_of(state)
        for other in self.jobs.values():
            if other.primary == job_id:
                self.result_of(other)
        del self.jobs[job_id]
        return result

    # -- queries ------------------------------------------------------------------------
    def take(self) -> List[object]:
        """The commands decided since the last call, in order."""
        commands, self._outbox = self._outbox, []
        return commands

    def next_deadline(self) -> Optional[float]:
        """When the next retry or respawn falls due (``None``: nothing waits)."""
        deadlines = (self._ready[0][0] if self._ready else None, self._supervisor.next_deadline())
        return min((due for due in deadlines if due is not None), default=None)

    def state(self, job_id: str) -> JobState:
        state = self.jobs.get(job_id)
        if state is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return state

    def primary_of(self, state: JobState) -> JobState:
        return self.state(state.primary) if state.primary else state

    def result_of(self, state: JobState) -> JobResult:
        """The result of a job whose primary finished; a follower's is
        materialised (and journaled) on first call."""
        if state.result is None:
            # A follower: its primary is still here (forget resolves a
            # primary's followers before dropping it).
            primary = self.primary_of(state)
            base = primary.result
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
            self._record_done(state)
        return state.result

    # -- transitions --------------------------------------------------------------------
    def _record(self, type_: str, **fields) -> None:
        self._outbox.append(Record(type_, fields))

    def _record_done(self, state: JobState) -> None:
        """WAL the finished job (fingerprint + result) so a resumed run can
        skip it."""
        self._record("done", job=state.job_id, fingerprint=state.fingerprint,
                     status=state.result.status, result=state.result)

    def _dispatch(self, state: JobState, task: TaskState) -> None:
        slot = self._dispatcher.choose(state.signature)
        self._dispatcher.record_dispatch(slot, state.signature)
        task.worker = slot
        task.in_flight = True
        self._outbox.append(Dispatch(slot, state, task))
        self._record("attempt", job=state.job_id, member=task.member_index,
                     attempt=task.attempt, worker=slot)

    def _cancel(self, state: JobState) -> None:
        state.cancelled = True
        self._cancelled.add(state.job_id)
        self._outbox.append(Cancel(state.job_id))

    def _maybe_cancel_rest(self, state: JobState) -> None:
        """First-to-target: cancel the job's remaining members once the
        merged pool holds enough unique solutions."""
        if state.cancelled or state.progress is None or state.tasks_remaining == 0:
            return
        if len(state.progress) >= state.job.num_solutions:
            self._cancel(state)

    def _fail(self, state: JobState, task: TaskState, error: str, died: bool, now: float) -> None:
        """One attempt failed: requeue under the retry policy, or make the
        failure terminal (quarantined as *poisoned* when a worker death
        spent the last attempt)."""
        task.in_flight = False
        task.attempts.append(
            {"attempt": task.attempt, "worker": task.worker, "error": error, "died": died}
        )
        attempts_used = task.attempt + 1
        if (
            attempts_used < self.retry.max_attempts
            and not self._closed
            and not state.cancelled
            and not state.drained
        ):
            task.attempt += 1
            self._record("retry", job=state.job_id, member=task.member_index,
                         attempt=task.attempt, cause="died" if died else "error")
            due = now + self.retry.delay_for(attempts_used)
            heapq.heappush(self._ready, (due, state.job_id, task.member_index))
            return
        task.done = True
        task.error = error
        task.poisoned = died
        if state.tasks_remaining == 0:
            self._finalize(state, now)

    def _respawn(self, slot: int) -> None:
        incarnation = self._supervisor.record_respawn(slot)
        self._dispatcher.set_online(slot)
        # A fresh process starts with an empty cancellation set; replay it so
        # tasks of already-cancelled groups are skipped, not re-sampled.
        self._outbox.append(Respawn(slot, incarnation, tuple(sorted(self._cancelled))))
        self._record("worker", event="respawn", worker=slot, incarnation=incarnation)

    def _apply_drain(self) -> None:
        if self._drain_applied:
            return
        self._drain_applied = True
        self._record("drain")
        for state in self.jobs.values():
            if state.done:
                continue
            state.drained = True
            if not state.cancelled:
                self._cancel(state)

    def _fail_stranded(self, now: float) -> None:
        """Every slot is gone and none will return: finish what is left as
        errors instead of letting callers hang."""
        for state in list(self.jobs.values()):
            if state.done or state.primary:
                continue
            for task in state.tasks:
                if not task.done:
                    task.done = True
                    task.in_flight = False
                    task.error = "no workers available (restart budget exhausted)"
            self._finalize(state, now)

    def _finalize(self, state: JobState, now: float) -> None:
        if self.drain_requested:
            self._apply_drain()
        members = [_member_record(state, task) for task in state.tasks]
        any_ok = any(task.error is None for task in state.tasks)
        if len(state.tasks) > 1:
            merged = self._merge(
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
        elapsed = now - state.start
        status = "done" if any_ok else "error"
        if not any_ok and any(task.poisoned for task in state.tasks):
            status = "poisoned"
        if state.drained and status == "done" and len(merged) < state.job.num_solutions:
            # A graceful drain checkpointed the job short of its target.
            status = "interrupted"
        error = state.refused
        if error is None and status in ("error", "poisoned"):
            error = "; ".join(str(member.get("error")) for member in members if "error" in member)

        def total(key, default=0):
            return sum(member.get(key, default) for member in members)

        def count(key, value):
            return sum(1 for member in members if member.get(key) == value)

        summary = {
            "job_id": state.job_id,
            "unique_solutions": len(merged),
            # Under a projected task the merge dedups on the projection, so
            # this counts distinct projected patterns (= unique_solutions;
            # surfaced separately so results.json is explicit about it).
            "projected_unique": len(merged),
            "task": state.job.task.kind(),
            "stopped_early": any(member.get("stopped_early", False) for member in members),
            "incremental_artifacts": count("incremental_artifact", True),
            "requested": state.job.num_solutions,
            "generated": total("generated"),
            "valid": total("valid"),
            "seconds": elapsed,
            "throughput": (len(merged) / elapsed) if elapsed > 0 else 0.0,
            "members": len(members),
            "cancelled_members": count("status", "cancelled"),
            "cache_hits": count("cache_hit", True),
            # Artifact-tier accounting: how many members compiled from
            # scratch ("cold_builds"), loaded from the persistent store, or
            # hit a worker's memory cache.  With a shared store and
            # single-flight leases, cold_builds for one formula stays at 1
            # across the whole pool.
            "cold_builds": count("artifact_source", "built"),
            "store_hits": count("artifact_source", "store"),
            "memory_hits": count("artifact_source", "memory"),
            "store_load_seconds": total("load_seconds", 0.0),
            "build_seconds": total("build_seconds", 0.0),
            "transform_seconds": total("transform_seconds", 0.0),
            # One-time native kernel build cost incurred by this job's
            # members, and the tiers that ran — kept separate from the
            # sampling seconds so cold and warm runs stay comparable.
            "compile_seconds": total("compile_seconds", 0.0),
            "kernel_tiers": sorted(
                {str(tier) for tier in (m.get("kernel_tier") for m in members) if tier is not None}
            ),
            "workers": sorted({m["worker"] for m in members if m["worker"] is not None}),
            # Resilience accounting: total requeued attempts across members
            # and how many members were quarantined as poisoned.
            "retries": sum(task.attempt for task in state.tasks),
            "poisoned_members": count("status", "poisoned"),
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
        if state.key is not None:
            self._coalesce.release(state.key, state.job_id)
        self._outbox.append(Finished(state))
        self._record_done(state)


#: Member-record fields copied from a sampling round's summary, then from
#: the task's done payload, with their defaults.  The payload says which
#: tier satisfied the artifact ("built" / "memory" / "store"), the
#: store-load latency and the kernel build cost — see repro.store.
_SUMMARY_FIELDS = (
    ("generated", 0), ("valid", 0), ("seconds", 0.0), ("rounds", 0), ("timed_out", False),
)
_PAYLOAD_FIELDS = (
    ("incremental_artifact", False), ("cache_hit", None), ("build_seconds", 0.0),
    ("transform_seconds", 0.0), ("kernel_tier", None), ("compile_seconds", 0.0),
    ("artifact_source", None), ("load_seconds", 0.0),
)


def _member_record(state: JobState, task: TaskState) -> Dict[str, object]:
    """One member's row of ``JobResult.members`` (and results.json)."""
    config = task.config
    record: Dict[str, object] = {
        "member_index": task.member_index,
        "seed": config.seed,
        "learning_rate": config.learning_rate,
        "batch_size": config.batch_size,
        "unique_solutions": len(task.solutions),
        "worker": task.worker,
    }
    payload = task.payload or {}
    summary = payload.get("summary") or {}
    if task.error is not None:
        record["status"] = "poisoned" if task.poisoned else "error"
        record["error"] = task.error
    else:
        stopped = bool(task.skipped or summary.get("stopped_early", False))
        record["status"] = "cancelled" if stopped else "done"
        record.update((key, summary.get(key, default)) for key, default in _SUMMARY_FIELDS)
        record["stopped_early"] = stopped
        record["task"] = payload.get("task", state.job.task.kind())
        record["projected_unique"] = summary.get("projected_unique", len(task.solutions))
        record.update((key, payload.get(key, default)) for key, default in _PAYLOAD_FIELDS)
        # The worker's cache/store counters at task end.
        if payload.get("cache_stats") is not None:
            record["cache_stats"] = payload["cache_stats"]
    if task.attempts:
        # The failed-attempt history (worker, error, died) and how many
        # requeues the member consumed.
        record["attempts"] = list(task.attempts)
        record["retries"] = task.attempt
    return record
