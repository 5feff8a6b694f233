"""The serving state machine under random interleavings.

:class:`CoreMachine` drives :class:`~repro.serve.core.SchedulerCore` alone,
with a fake executor (per-slot task queues whose worker emits fixed,
seed-determined row blocks) and a fake clock.  Rules submit single jobs,
portfolios and coalesced duplicates, deliver round/done/error messages,
deliver a *stale* message buffered by a dead incarnation, kill a slot, tick
the clock, collect and forget finished jobs, drain, and resume through
:func:`~repro.serve.journal.plan_resume` over the journal records written
so far.  The invariants hold after every step:

* every job reaches exactly one terminal status;
* streamed rows equal the final set, with no duplicates;
* nothing is dispatched to an offline slot;
* ``plan_resume`` yields exactly the unfinished jobs;
* a retry never exceeds ``RetryPolicy.max_attempts``.

``test_pool_replays_match_inline`` replays a few fixed event scripts
against a real spawn pool under ``FaultPlan`` kills and compares the rows
with an inline run, bit for bit; ``test_inline_retry_runs_at_once_in_order``
pins the inline driver's order.

The CI chaos job runs this file under the deeper ``core-deep`` hypothesis
profile (``tests/conftest.py``).
"""

from __future__ import annotations

import collections
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import faults
from repro.core.config import SamplerConfig
from repro.io.results_io import job_result_row
from repro.serve import RetryPolicy, SamplingJob, SamplingService
from repro.serve import service as service_module
from repro.serve.core import (
    MSG_DONE,
    MSG_ERROR,
    MSG_ROUND,
    Cancel,
    Dispatch,
    Finished,
    JobState,
    Record,
    Respawn,
    SchedulerCore,
    task_payload,
)
from repro.serve.journal import JobJournal, job_fingerprint, plan_resume
from tests.conftest import FIG1_DIMACS

NUM_SLOTS = 2
MAX_ATTEMPTS = 3
NUM_VARIABLES = 6
#: Rows per round block, and blocks per (job, member) before it is spent.
BLOCK_ROWS = 3
BLOCKS = 4
MAX_JOBS = 8
SOURCE = {"dimacs": f"p cnf {NUM_VARIABLES} 1\n1 2 0\n"}
#: Admission refuses this width at batch 512 (2^29 cells > 2^28).
OVERSIZED = {"dimacs": "p cnf 1048576 1\n1 0\n"}


def blocks_for(job_id, member):
    """The deterministic rows a (job, member) task emits, attempt after
    attempt: unique within the task, overlapping across members."""
    seed = int.from_bytes(f"{job_id}/{member}".encode(), "little") % 2**32
    patterns = np.random.default_rng(seed).permutation(2**NUM_VARIABLES)[: BLOCK_ROWS * BLOCKS]
    rows = ((patterns[:, None] >> np.arange(NUM_VARIABLES)) & 1).astype(bool)
    return [rows[index * BLOCK_ROWS:(index + 1) * BLOCK_ROWS] for index in range(BLOCKS)]


def row_set(matrices):
    return {tuple(row) for matrix in matrices for row in matrix.tolist()}


def snapshot(state):
    """Everything a message can change about a job."""
    return (
        state.done,
        len(state.stream_buffer),
        tuple((task.done, task.attempt, len(task.solutions)) for task in state.tasks),
    )


class CoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.core = SchedulerCore(
            NUM_SLOTS, RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_seconds=0.5)
        )
        self.now = 0.0
        self.online = set(range(NUM_SLOTS))
        #: Per slot: [payload, blocks emitted] of each queued task, in order.
        self.queues = {slot: collections.deque() for slot in range(NUM_SLOTS)}
        #: Per slot: the cancelled groups its worker was told.
        self.told = {slot: set() for slot in range(NUM_SLOTS)}
        #: Messages a killed incarnation had buffered, delivered later.
        self.stale = []
        self.records = []
        self.finished = collections.Counter()
        #: Every submitted job, in submit order (the resume manifest).
        self.manifest = []
        self.live = []
        self.workdir = Path(tempfile.mkdtemp(prefix="core-machine-"))

    def teardown(self) -> None:
        try:
            self.settle()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- plumbing ---------------------------------------------------------------------
    def apply(self) -> None:
        for command in self.core.take():
            if isinstance(command, Dispatch):
                assert command.slot in self.online, "dispatched to an offline slot"
                assert command.task.attempt < MAX_ATTEMPTS
                self.queues[command.slot].append([task_payload(command.job, command.task), 0])
            elif isinstance(command, Cancel):
                for slot in self.online:
                    self.told[slot].add(command.group)
            elif isinstance(command, Respawn):
                assert command.slot not in self.online
                self.online.add(command.slot)
                self.told[command.slot] = set(command.cancelled)
            elif isinstance(command, Record):
                self.records.append(command)
            else:
                assert isinstance(command, Finished)
                self.finished[command.job.job_id] += 1
                assert self.finished[command.job.job_id] == 1, "a job finished twice"
                self.check_rows(command.job)

    def deliver(self, kind, key, payload) -> None:
        self.core.message(kind, key, payload, self.now)
        self.apply()

    def next_message(self, slot, action):
        """What the worker on ``slot`` emits next for the head of its queue;
        pops the task when the message is terminal."""
        queue = self.queues[slot]
        entry = queue[0]
        payload, emitted = entry
        job_id, member = payload["key"]
        blocks = blocks_for(job_id, member)
        base = {"worker": slot, "attempt": payload["attempt"]}
        if payload["group"] in self.told[slot]:
            queue.popleft()
            if emitted == 0:  # skipped before it started
                return MSG_DONE, {**base, "summary": None, "cancelled": True}
            summary = {"rounds": emitted, "stopped_early": True}
            return MSG_DONE, {**base, "summary": summary, "cancelled": True}
        if action == "round" and emitted < len(blocks):
            entry[1] += 1
            return MSG_ROUND, {**base, "rows": blocks[emitted].copy()}
        queue.popleft()
        if action == "error":
            return MSG_ERROR, {**base, "error": "InjectedFault: boom"}
        summary = {"rounds": emitted, "generated": emitted * BLOCK_ROWS, "stopped_early": False}
        return MSG_DONE, {**base, "summary": summary, "cancelled": False}

    def submit_job(self, source, members, target, seed, coalesce, batch_size=32) -> None:
        job = SamplingJob.build(
            source,
            num_solutions=target,
            config=SamplerConfig(batch_size=batch_size, seed=seed),
            portfolio=members if members > 1 else None,
            coalesce=coalesce,
        )
        job_id = f"job-{len(self.manifest)}"
        num_variables = int(source["dimacs"].split()[2])
        state = JobState(
            job, job_id, f"sig-{num_variables}", "digest", num_variables,
            start=self.now, fingerprint=job_fingerprint(job),
        )
        self.manifest.append(job)
        self.live.append(job_id)
        self.core.submit(state, self.now)
        self.apply()

    def settle(self) -> None:
        """Run every queued task to completion and let time pass until every
        job is terminal (nothing can be left hanging)."""
        for _ in range(20):
            pending = [state for state in self.core.jobs.values() if not state.primary and not state.done]
            if not pending:
                break
            for slot in sorted(self.online):
                while self.queues[slot]:
                    key = self.queues[slot][0][0]["key"]
                    kind, payload = self.next_message(slot, "round")
                    self.deliver(kind, key, payload)
            self.now += 100.0
            self.core.tick(self.now)
            self.apply()
        else:  # pragma: no cover - reported as a failure
            raise AssertionError("jobs never finished")
        for state in list(self.core.jobs.values()):
            result = self.core.result_of(state)
            self.apply()
            assert result.status in ("done", "error", "poisoned", "interrupted")
        for state in self.core.jobs.values():
            if state.primary is None:
                assert self.finished[state.job_id] == 1

    def check_rows(self, state) -> None:
        """Streamed rows are the final set: exactly (in order) for one
        member, as a set across a portfolio's successful members."""
        result = state.result
        final = result.solutions.to_matrix()
        streamed = state.stream_buffer
        failed = any(task.error is not None for task in state.tasks)
        assert row_set([final]) <= row_set(streamed)
        if failed:
            return
        assert row_set(streamed) == row_set([final])
        if len(state.tasks) == 1:
            joined = np.concatenate(streamed) if streamed else final[:0]
            assert np.array_equal(joined, final)
            assert len(row_set([joined])) == joined.shape[0], "a row streamed twice"
        for record in result.members:
            assert len(record.get("attempts", ())) <= MAX_ATTEMPTS
            assert record.get("retries", 0) < MAX_ATTEMPTS

    # -- rules ------------------------------------------------------------------------
    @precondition(lambda self: not self.core.drain_requested and len(self.manifest) < MAX_JOBS)
    @rule(
        members=st.integers(1, 3),
        wanted=st.integers(1, 2 * BLOCK_ROWS * BLOCKS),
        seed=st.integers(0, 2),
        coalesce=st.booleans(),
    )
    def submit(self, members, wanted, seed, coalesce):
        self.submit_job(SOURCE, members, wanted, seed, coalesce)

    @precondition(lambda self: not self.core.drain_requested and len(self.manifest) < MAX_JOBS)
    @rule()
    def submit_oversized(self):
        self.submit_job(OVERSIZED, 1, 10, 0, True, batch_size=512)
        state = self.core.jobs[self.live[-1]]
        if state.primary is None:
            assert state.done and state.result.status == "error"
            assert "admission bound" in state.result.error
            assert all(task.worker is None for task in state.tasks)

    @precondition(lambda self: any(self.queues[slot] for slot in self.online))
    @rule(data=st.data(), action=st.sampled_from(["round", "round", "round", "done", "error"]))
    def work(self, data, action):
        slot = data.draw(st.sampled_from(sorted(s for s in self.online if self.queues[s])))
        key = self.queues[slot][0][0]["key"]
        kind, payload = self.next_message(slot, action)
        self.deliver(kind, key, payload)

    @precondition(lambda self: self.online)
    @rule(data=st.data())
    def kill(self, data):
        slot = data.draw(st.sampled_from(sorted(self.online)))
        queue = self.queues[slot]
        if queue:
            # The dying worker's last message is still in the result queue.
            key = queue[0][0]["key"]
            self.stale.append((key, *self.next_message(slot, data.draw(st.sampled_from(["round", "done", "error"])))))
        queue.clear()
        self.told[slot].clear()
        self.online.discard(slot)
        self.core.worker_died(slot, 137, self.now)
        self.apply()

    @precondition(lambda self: self.stale)
    @rule()
    def deliver_stale(self):
        key, kind, payload = self.stale.pop(0)
        state = self.core.jobs.get(key[0])
        before = snapshot(state) if state is not None else None
        self.deliver(kind, key, payload)
        if state is not None:
            assert snapshot(state) == before, "a stale message changed its job"

    @rule(delta=st.sampled_from([0.0, 0.1, 0.3, 1.0, 5.0, 60.0]))
    def tick(self, delta):
        self.now += delta
        self.core.tick(self.now)
        self.apply()

    @precondition(lambda self: self.live)
    @rule(data=st.data(), forget=st.booleans())
    def collect(self, data, forget):
        job_id = data.draw(st.sampled_from(self.live))
        state = self.core.jobs[job_id]
        if state.result is None and not self.core.primary_of(state).done:
            with pytest.raises(RuntimeError):
                self.core.forget(job_id)
            return
        if forget:
            result = self.core.forget(job_id)
            self.live.remove(job_id)
            assert job_id not in self.core.jobs
        else:
            result = self.core.result_of(state)
        self.apply()
        assert result.job_id == job_id

    @precondition(lambda self: not self.core.drain_requested)
    @rule()
    def drain(self):
        self.core.request_drain()

    @rule()
    def resume(self):
        journal_path = self.workdir / "journal.jsonl"
        journal_path.unlink(missing_ok=True)
        finished = set()
        with JobJournal(journal_path) as journal:
            for record in self.records:
                fields = dict(record.fields)
                if record.type == "done":
                    fields["result"] = job_result_row(fields["result"])
                    if fields["status"] == "done":
                        finished.add(fields["job"])
                        (self.workdir / f"{fields['job']}.solutions").touch()
                journal.record(record.type, **fields)
        pending, rows = plan_resume(self.manifest, journal_path, self.workdir)
        expected = collections.Counter(
            job_fingerprint(job)
            for index, job in enumerate(self.manifest)
            if f"job-{index}" not in finished
        )
        assert collections.Counter(job_fingerprint(job) for _, job in pending) == expected
        assert sum(row is not None for row in rows) == len(self.manifest) - len(pending)

    # -- invariants -------------------------------------------------------------------
    @invariant()
    def terminal_jobs_are_consistent(self):
        for state in self.core.jobs.values():
            assert state.done == (state.result is not None)
            if state.primary is None:
                assert self.finished[state.job_id] == int(state.done)
            for task in state.tasks:
                assert task.attempt < MAX_ATTEMPTS
                assert len(task.attempts) <= MAX_ATTEMPTS


CoreMachine.TestCase.settings = settings(deadline=None)
TestCoreMachine = CoreMachine.TestCase


def test_the_core_does_no_io():
    """The core reads no clock and touches no queue, process or file: it
    imports none of the modules that would."""
    import ast
    import inspect

    from repro.serve import core

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(core))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not imported & {"multiprocessing", "queue", "os", "time", "threading", "subprocess"}


# -- the real pool, replaying fixed scripts ---------------------------------------------

CONFIG = SamplerConfig(batch_size=32, seed=0, max_rounds=3)
#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0

#: Each script: a fault plan and the jobs submitted (num_solutions,
#: portfolio, seed).  Targets are out of reach, so no member is cancelled
#: and a portfolio's merge does not depend on scheduling.
SCRIPTS = {
    "kill-first-task": ("seed=3;kill:at=1,incarnation=0", [(500, None, 0), (500, None, 1), (500, None, 0)]),
    "kill-mid-stream": ("seed=3;kill:at=2,incarnation=0,phase=round", [(500, 2, 0), (500, None, 2)]),
    "failed-build": ("build:at=1", [(500, None, 5), (500, 2, 6)]),
}


@pytest.fixture
def clean_fault_plan():
    """A service installs its fault plan in this process too; clear it."""
    faults.clear()
    yield
    faults.clear()


def run_script(script, num_workers):
    faults, jobs = SCRIPTS[script]
    with SamplingService(
        num_workers=num_workers, store_dir=False, faults=faults if num_workers else None
    ) as service:
        job_ids = [
            service.submit(FIG1_DIMACS, num_solutions=target, config=CONFIG.with_(seed=seed), portfolio=portfolio)
            for target, portfolio, seed in jobs
        ]
        results = [service.result(job_id, timeout=TIMEOUT) for job_id in job_ids]
    assert [result.status for result in results] == ["done"] * len(results)
    return results


@pytest.mark.parametrize("num_workers", [1, 2])
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_pool_replays_match_inline(script, num_workers, clean_fault_plan):
    expected = run_script(script, 0)
    results = run_script(script, num_workers)
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got.solutions.to_matrix(), want.solutions.to_matrix())
    # The fault fired: some task of the pooled run was retried.
    assert sum(result.summary["retries"] for result in results) >= 1


def test_inline_retry_runs_at_once_in_order(monkeypatch, clean_fault_plan):
    """Jobs run in submit order and members in index order; a failed
    member's retry runs before the next job, without its backoff."""
    ran = []
    real_execute = service_module.execute_task

    def recording(task, *args, **kwargs):
        ran.append((*task["key"], task["attempt"]))
        return real_execute(task, *args, **kwargs)

    monkeypatch.setattr(service_module, "execute_task", recording)
    start = time.perf_counter()
    with SamplingService(
        num_workers=0, store_dir=False, faults="build:at=1",
        retry=RetryPolicy(max_attempts=2, backoff_seconds=30.0),
    ) as service:
        first = service.submit(FIG1_DIMACS, num_solutions=500, config=CONFIG, portfolio=2)
        second = service.submit(FIG1_DIMACS, num_solutions=500, config=CONFIG.with_(seed=9))
        results = [service.result(second), service.result(first)]
    assert time.perf_counter() - start < 30.0
    assert ran == [(first, 0, 0), (first, 1, 0), (first, 0, 1), (second, 0, 0)]
    assert [result.status for result in results] == ["done", "done"]
    assert results[1].members[0]["retries"] == 1
    assert "InjectedFault" in results[1].members[0]["attempts"][0]["error"]
