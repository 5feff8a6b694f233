"""RetryPolicy and its spec, WorkerSupervisor bookkeeping, journal units."""

import json

import pytest

from repro.serve.journal import JobJournal, job_fingerprint, read_journal
from repro.serve.jobs import SamplingJob
from repro.serve.retry import (
    BACKOFF_MAX_SECONDS,
    RetryPolicy,
    RetrySpecError,
    parse_retry_spec,
)
from repro.serve.service import SamplingService
from repro.serve.supervisor import MAX_RESTARTS, WINDOW_SECONDS, WorkerSupervisor


class TestRetryPolicy:
    def test_defaults_and_validation(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        with pytest.raises(RetrySpecError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(RetrySpecError):
            RetryPolicy(backoff_seconds=-1.0)

    def test_delay_grows_and_caps(self):
        # The factor (2) and the ceiling (30 s) are module constants.
        policy = RetryPolicy(backoff_seconds=10.0)
        assert policy.delay_for(1) == pytest.approx(10.0)
        assert policy.delay_for(2) == pytest.approx(20.0)
        assert policy.delay_for(3) == pytest.approx(BACKOFF_MAX_SECONDS)  # capped
        assert RetryPolicy(backoff_seconds=0.1).delay_for(3) == pytest.approx(0.4)

    def test_normalize_accepts_every_form(self):
        # The two --retry forms: N, and key=value pairs over the defaults.
        assert parse_retry_spec("5") == RetryPolicy(max_attempts=5)
        assert parse_retry_spec("attempts=4,backoff=0.5") == RetryPolicy(
            max_attempts=4, backoff_seconds=0.5
        )
        assert parse_retry_spec("backoff=0") == RetryPolicy(backoff_seconds=0.0)
        assert parse_retry_spec("") == RetryPolicy()

    @pytest.mark.parametrize("spec", ["3", " 3 "])
    def test_integer_string_means_max_attempts(self, spec):
        assert parse_retry_spec(spec) == RetryPolicy(max_attempts=3)

    @pytest.mark.parametrize("bad", [True, "attempts", "wat=3", {"wat": 1}, 3.5])
    def test_normalize_rejects_garbage(self, bad):
        with pytest.raises(RetrySpecError):
            parse_retry_spec(bad)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("factor=2", "'factor'"),
            ("deadline=60", "'deadline'"),
            ("max_attempts=3", "'max_attempts'"),
            ("attempts=x", "attempts='x'"),
            ("0", "max_attempts"),
        ],
    )
    def test_spec_error_names_the_part(self, spec, named):
        with pytest.raises(RetrySpecError, match=named):
            parse_retry_spec(spec)

    def test_env_var_is_not_read(self, monkeypatch):
        # One policy, set by whoever builds the service: the environment
        # has no say, even a malformed value.
        monkeypatch.setenv("REPRO_RETRY", "attempts=9,bogus=1")
        with SamplingService(num_workers=0, store_dir=False) as service:
            assert service._retry_policy == RetryPolicy()  # noqa: SLF001
            result = service.result(
                service.submit({"dimacs": "p cnf 2 1\n1 2 0\n"}, num_solutions=2)
            )
        assert result.status == "done"

    @pytest.mark.parametrize("retry", [3, "attempts=3", {"attempts": 3}])
    def test_service_takes_only_a_policy(self, retry):
        with pytest.raises(TypeError, match="RetryPolicy"):
            SamplingService(num_workers=0, store_dir=False, retry=retry)

    def test_submit_and_job_take_no_retry(self):
        with SamplingService(num_workers=0, store_dir=False) as service:
            with pytest.raises(TypeError, match="retry"):
                service.submit({"dimacs": "p cnf 1 1\n1 0\n"}, retry=2)
        with pytest.raises(TypeError, match="retry"):
            SamplingJob.build({"dimacs": "p cnf 1 1\n1 0\n"}, retry=2)


class TestWorkerSupervisor:
    """Against the module's constants: a 0.2 s first delay doubling per
    consecutive death up to 10 s, and 5 restarts per 60 s window."""

    def test_backoff_grows_then_resets_on_success(self):
        supervisor = WorkerSupervisor(1)
        # Deaths a window apart never exhaust the budget, so the streak
        # alone drives the delay: 0.2 s doubling, capped at 10 s.
        delays = []
        for death in range(8):
            now = 100.0 * death
            delays.append(supervisor.record_death(0, now=now) - now)
            supervisor.record_respawn(0)
        assert delays == pytest.approx([0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 10.0, 10.0])
        supervisor.record_success(0)  # a completed task ends the streak
        assert supervisor.record_death(0, now=1000.0) == pytest.approx(1000.2)

    def test_restart_budget_abandons_slot(self):
        supervisor = WorkerSupervisor(1)
        for now in range(MAX_RESTARTS):
            assert supervisor.record_death(0, now=float(now)) is not None
        assert supervisor.record_death(0, now=float(MAX_RESTARTS)) is None  # one too many
        assert supervisor.is_failed(0)
        assert not supervisor.any_pending()

    def test_window_slides(self):
        supervisor = WorkerSupervisor(1)
        for now in range(MAX_RESTARTS):
            supervisor.record_death(0, now=float(now))
        # old deaths age out of the window: no abandonment
        assert supervisor.record_death(0, now=WINDOW_SECONDS + 10.0) is not None
        assert not supervisor.is_failed(0)

    def test_due_and_deadline(self):
        supervisor = WorkerSupervisor(2)
        supervisor.record_death(0, now=0.0)
        supervisor.record_death(1, now=0.1)
        assert supervisor.due(0.1) == []
        assert supervisor.due(0.25) == [0]
        assert supervisor.due(1.0) == [0, 1]
        assert supervisor.next_deadline() == pytest.approx(0.2)
        assert supervisor.record_respawn(0) == 1
        assert supervisor.incarnation(0) == 1
        assert supervisor.next_deadline() == pytest.approx(0.3)

    def test_restart_values_are_not_settable(self):
        with pytest.raises(TypeError):
            WorkerSupervisor(1, policy=None)
        import repro.serve

        assert not hasattr(repro.serve, "RestartPolicy")


class TestJournalUnits:
    def test_round_trip_and_torn_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("run", pid=1)
            journal.record("done", job="job-0", status="done")
        # simulate a crash mid-write: a torn trailing line
        with open(path, "a") as handle:
            handle.write('{"type": "done", "job"')
        records = read_journal(path)
        assert [record["type"] for record in records] == ["run", "done"]
        assert all("time" in record for record in records)

    def test_unwritable_journal_goes_quiet(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.close()
        journal.record("run")  # no raise after close

    def test_unserialisable_fields_stringified(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.record("done", weird=object())
        (record,) = read_journal(path)
        assert isinstance(record["weird"], str)

    def test_fingerprint_ignores_id_and_retry(self):
        # Retry is the service's policy, so no job field can carry it.
        a = SamplingJob.build({"dimacs": "p cnf 1 1\n1 0\n"}, num_solutions=10,
                              job_id="a")
        b = SamplingJob.build({"dimacs": "p cnf 1 1\n1 0\n"}, num_solutions=10,
                              job_id="b")
        assert job_fingerprint(a) == job_fingerprint(b)
        c = SamplingJob.build({"dimacs": "p cnf 1 1\n1 0\n"}, num_solutions=11)
        assert job_fingerprint(a) != job_fingerprint(c)

    def test_read_missing_journal(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []
