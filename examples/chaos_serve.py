#!/usr/bin/env python3
"""Fault-tolerance tour: killed workers, retries, poisoning and resume.

This walks the resilience layer (:mod:`repro.faults` + the supervised
:class:`repro.serve.SamplingService`) end to end, with every fault injected
deterministically from a seeded plan:

1. run a small job pool with a fault plan that SIGKILLs a worker the
   moment it picks up its second task — the supervisor respawns the slot,
   requeues the dead worker's in-flight work, and every job still finishes
   with results bitwise-identical to a fault-free run,
2. poison a job: a fault rule that kills *every* incarnation on its first
   task exhausts the retry budget and the task is quarantined as
   ``poisoned`` with its full attempt history, while the pool survives,
3. journal + drain: run with a job journal, inspect the crash-safe record
   of submits / attempts / worker deaths / retries, and show what
   ``repro-sat serve MANIFEST --resume DIR`` would re-run.

Everything here spawns real worker processes; the script finishes in a few
seconds.  Run with:  python examples/chaos_serve.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.config import SamplerConfig
from repro.serve import RetryPolicy, SamplingService, plan_resume, read_journal
from repro.serve.jobs import SamplingJob
from repro.serve.journal import JOURNAL_NAME, job_fingerprint

INSTANCE = {"instance": "s15850a_3_2"}  # 1680 variables, 4474 clauses
CONFIG = SamplerConfig(batch_size=256, seed=0)


def baseline(num_solutions: int) -> np.ndarray:
    with SamplingService(num_workers=1, store_dir=False) as service:
        job = service.submit(INSTANCE, num_solutions=num_solutions, config=CONFIG)
        return service.result(job).solutions.to_matrix()


def main() -> None:
    # -- 1: a worker is SIGKILLed mid-run; the pool self-heals ----------------
    # `kill:at=2,worker=0,incarnation=0` kills worker 0's original process as
    # it dequeues its 2nd task; the respawned incarnation no longer matches.
    expected = baseline(200)
    with SamplingService(
        num_workers=2,
        store_dir=False,
        faults="seed=7;kill:at=2,worker=0,incarnation=0",
    ) as service:
        jobs = [
            service.submit(INSTANCE, num_solutions=200,
                           config=CONFIG.with_(seed=index), coalesce=False)
            for index in range(4)
        ]
        results = [service.result(job) for job in jobs]
    retried = sum(result.summary["retries"] for result in results)
    print(f"[supervision] statuses : {[result.status for result in results]} "
          f"({retried} task(s) requeued after the worker kill)")
    survivor = next(r for r in results if r.summary["retries"])
    print(f"[supervision] history  : {survivor.members[0]['attempts']}")
    # results[0] is the seed-0 job — retried or not, seed-deterministic
    # sampling + exact dedup make its pool match the fault-free run exactly
    print(f"[supervision] seed-0 job bitwise-identical to fault-free run: "
          f"{np.array_equal(results[0].solutions.to_matrix(), expected)}")

    # -- 2: a poison task is quarantined, the service survives ----------------
    # no incarnation filter: every respawn dies on its first task, so the
    # retry budget (2 attempts) is spent entirely on worker deaths.
    with SamplingService(
        num_workers=1,
        store_dir=False,
        retry=RetryPolicy(max_attempts=2, backoff_seconds=0.1),
        faults="seed=7;kill:at=1",
    ) as service:
        doomed = service.submit(INSTANCE, num_solutions=50, config=CONFIG)
        result = service.result(doomed)
    print(f"[poisoning]  status    : {result.status!r} after "
          f"{len(result.members[0]['attempts'])} attempts "
          f"(error: {result.error})")

    # -- 3: the crash-safe journal, and what --resume would do ----------------
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch)
        with SamplingService(
            num_workers=1,
            store_dir=False,
            journal=out_dir / JOURNAL_NAME,
            faults="seed=7;kill:at=1,incarnation=0",
        ) as service:
            job = service.submit(INSTANCE, num_solutions=100, config=CONFIG,
                                 job_id="journaled")
            result = service.result(job)
        events = [record.get("event") or record["type"]
                  for record in read_journal(out_dir / JOURNAL_NAME)]
        print(f"[journal]    events    : {events}")
        # the CLI writes <job-id>.solutions next to the journal; emulate it,
        # then ask plan_resume what a second invocation would actually run
        (out_dir / "journaled.solutions").write_text("stub\n")
        manifest_jobs = [
            SamplingJob.build(INSTANCE, num_solutions=100, config=CONFIG),
            SamplingJob.build(INSTANCE, num_solutions=400, config=CONFIG),
        ]
        pending, rows = plan_resume(manifest_jobs, out_dir / JOURNAL_NAME, out_dir)
        print(f"[resume]     fingerprints match journaled completions; "
              f"{len(rows) - len(pending)}/{len(manifest_jobs)} jobs skipped, "
              f"{len(pending)} would run "
              f"(pending indices: {[index for index, _job in pending]})")
        assert job_fingerprint(manifest_jobs[0]) != job_fingerprint(manifest_jobs[1])


if __name__ == "__main__":
    main()
