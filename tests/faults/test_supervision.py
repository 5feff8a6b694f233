"""Supervised worker pools under injected faults.

These spawn real worker processes; each scenario uses the smallest pool and
target that still exercises the path, and every fault plan is seeded so the
runs are reproducible.
"""

import time

import numpy as np
import pytest

from repro.core.config import SamplerConfig
from repro.serve import RetryPolicy, SamplingService, read_journal
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)

#: Generous bound for pool operations on a loaded CI box.
TIMEOUT = 120.0


def baseline_matrix(num_solutions=30):
    with SamplingService(num_workers=1, store_dir=False) as service:
        job_id = service.submit(
            FIG1_DIMACS, num_solutions=num_solutions, config=CONFIG
        )
        result = service.result(job_id, timeout=TIMEOUT)
    assert result.status == "done"
    return result.solutions.to_matrix()


class TestKillRecovery:
    def test_mid_job_kill_is_bitwise_identical(self, tmp_path):
        expected = baseline_matrix()
        journal_path = tmp_path / "journal.jsonl"
        # kill the original worker the moment it dequeues its first task;
        # the respawn (incarnation 1) no longer matches the rule
        with SamplingService(
            num_workers=1,
            store_dir=False,
            journal=journal_path,
            faults="seed=3;kill:at=1,incarnation=0",
        ) as service:
            job_id = service.submit(FIG1_DIMACS, num_solutions=30, config=CONFIG)
            result = service.result(job_id, timeout=TIMEOUT)
        assert result.status == "done", result.error
        assert result.summary["retries"] == 1
        (member,) = result.members
        assert member["retries"] == 1
        assert member["attempts"][0]["died"] is True
        assert np.array_equal(result.solutions.to_matrix(), expected)
        # the journal recorded the whole story
        events = [
            (record.get("event") or record["type"])
            for record in read_journal(journal_path)
        ]
        for expected_event in ("submit", "attempt", "death", "retry", "respawn", "done"):
            assert expected_event in events, events

    def test_mid_stream_kill_replays_without_duplicates(self):
        expected = baseline_matrix()
        # die right after streaming the 2nd round message: the replacement
        # replays rounds 1-2 (deduped out of the stream) then continues
        with SamplingService(
            num_workers=1,
            store_dir=False,
            faults="seed=3;kill:at=2,incarnation=0,phase=round",
        ) as service:
            job_id = service.submit(FIG1_DIMACS, num_solutions=30, config=CONFIG)
            chunks = list(service.stream(job_id))
            result = service.result(job_id, timeout=TIMEOUT)
        assert result.status == "done", result.error
        assert result.summary["retries"] == 1
        streamed = np.concatenate(chunks, axis=0)
        # no duplicates leaked into the stream despite the replay
        assert len(np.unique(np.packbits(streamed, axis=1), axis=0)) == streamed.shape[0]
        assert np.array_equal(streamed, expected)
        assert np.array_equal(result.solutions.to_matrix(), expected)

    def test_four_worker_pool_with_one_kill_completes_all_jobs(self):
        # the acceptance scenario: a 4-worker manifest where one worker is
        # killed mid-run still completes every job
        with SamplingService(
            num_workers=4,
            store_dir=False,
            faults="seed=5;kill:at=2,worker=1,incarnation=0",
        ) as service:
            job_ids = [
                service.submit(
                    FIG1_DIMACS,
                    num_solutions=20,
                    config=CONFIG.with_(seed=100 + index),
                    coalesce=False,
                )
                for index in range(8)
            ]
            results = [service.result(job_id, timeout=TIMEOUT) for job_id in job_ids]
        assert [result.status for result in results] == ["done"] * 8


class TestPoisoning:
    def test_task_that_keeps_killing_workers_is_quarantined(self):
        # no incarnation filter: every incarnation dies on its first task,
        # so the retry budget (2 attempts) is spent on worker deaths
        with SamplingService(
            num_workers=1,
            store_dir=False,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.05),
            faults="seed=3;kill:at=1",
        ) as service:
            job_id = service.submit(FIG1_DIMACS, num_solutions=10, config=CONFIG)
            result = service.result(job_id, timeout=TIMEOUT)
        assert result.status == "poisoned"
        assert "died" in (result.error or "")
        (member,) = result.members
        assert member["status"] == "poisoned"
        assert len(member["attempts"]) == 2
        assert all(attempt["died"] for attempt in member["attempts"])
        assert result.summary["poisoned_members"] == 1


class TestPromptWake:
    def test_worker_death_wakes_blocked_result_promptly(self):
        # an unreachable target with no stall cutoff: the job would run for
        # minutes; the only way result() returns fast is the death wake
        config = CONFIG.with_(max_rounds=10**6, stall_rounds=None)
        service = SamplingService(
            num_workers=1, store_dir=False, retry=RetryPolicy(max_attempts=1)
        )
        try:
            job_id = service.submit(FIG1_DIMACS, num_solutions=10**9, config=config)
            # wait for sampling to actually start (first streamed round)
            next(iter(service.stream(job_id)))
            service._driver.workers[0].process.terminate()  # noqa: SLF001
            start = time.perf_counter()
            result = service.result(job_id, timeout=TIMEOUT)
            elapsed = time.perf_counter() - start
        finally:
            service.close()
        assert result.status == "poisoned"
        assert elapsed < 5.0

    def test_retry_exhaustion_error_mentions_death(self):
        with SamplingService(
            num_workers=1,
            store_dir=False,
            retry=RetryPolicy(max_attempts=1),  # never retry
            faults="seed=3;kill:at=1",
        ) as service:
            job_id = service.submit(FIG1_DIMACS, num_solutions=10, config=CONFIG)
            result = service.result(job_id, timeout=TIMEOUT)
        assert result.status == "poisoned"
        (member,) = result.members
        assert len(member["attempts"]) == 1


class TestStoreRePrime:
    def test_respawned_worker_reloads_artifact_from_store(self, tmp_path):
        # With a persistent store, the respawned worker re-primes its cache
        # from disk instead of recompiling: its member reports a store hit.
        store_dir = tmp_path / "store"
        with SamplingService(num_workers=1, store_dir=store_dir) as service:
            first = service.submit(FIG1_DIMACS, num_solutions=10, config=CONFIG)
            assert service.result(first, timeout=TIMEOUT).status == "done"
        # fresh service, same store: kill the original worker on its first
        # task; the respawn must satisfy the artifact from the store
        with SamplingService(
            num_workers=1,
            store_dir=store_dir,
            faults="seed=3;kill:at=1,incarnation=0",
        ) as service:
            job_id = service.submit(FIG1_DIMACS, num_solutions=10, config=CONFIG)
            result = service.result(job_id, timeout=TIMEOUT)
        assert result.status == "done", result.error
        (member,) = result.members
        assert member["artifact_source"] == "store"


class TestDispatcherSupervisionHooks:
    def test_offline_slots_never_chosen(self):
        from repro.serve.queue import Dispatcher

        dispatcher = Dispatcher(2)
        dispatcher.record_dispatch(0, "sig")
        dispatcher.set_offline(0)
        assert dispatcher.outstanding(0) == 0  # accounting zeroed
        assert dispatcher.choose("sig") == 1  # warm affinity forgotten too
        dispatcher.set_offline(1)
        assert not dispatcher.has_online
        with pytest.raises(RuntimeError):
            dispatcher.choose("sig")
        dispatcher.set_online(0)
        assert dispatcher.choose("sig") == 0
