"""Crash-safe journal resume and graceful drain, unit level and CLI level."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import SamplerConfig
from repro.serve.journal import (
    JOURNAL_NAME,
    JobJournal,
    job_fingerprint,
    plan_resume,
    read_journal,
)
from repro.serve.jobs import SamplingJob, config_to_dict
from tests.conftest import FIG1_DIMACS

#: Generous bound per CLI invocation (spawned interpreter imports numpy).
TIMEOUT = 180


def make_job(seed=0, num_solutions=8, job_id=None):
    return SamplingJob.build(
        {"dimacs": FIG1_DIMACS},
        num_solutions=num_solutions,
        config=SamplerConfig(batch_size=32, seed=seed),
        job_id=job_id,
    )


def journal_done(journal, job, job_id):
    journal.record(
        "done",
        job=job_id,
        fingerprint=job_fingerprint(job),
        status="done",
        result={"job_id": job_id, "status": "done"},
    )


class TestPlanResume:
    def test_completed_jobs_skipped_others_pending(self, tmp_path):
        jobs = [make_job(seed=0), make_job(seed=1)]
        (tmp_path / "done-0.solutions").write_text("0 1\n")
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            journal_done(journal, jobs[0], "done-0")
        pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [1]
        assert rows[0] == {"job_id": "done-0", "status": "done", "resumed": True}
        assert rows[1] is None

    def test_missing_solutions_file_forces_rerun(self, tmp_path):
        jobs = [make_job(seed=0)]
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            journal_done(journal, jobs[0], "done-0")  # no .solutions on disk
        pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [0]
        assert rows == [None]

    def test_non_done_records_do_not_satisfy(self, tmp_path):
        jobs = [make_job(seed=0)]
        (tmp_path / "j.solutions").write_text("0 1\n")
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            journal.record(
                "done",
                job="j",
                fingerprint=job_fingerprint(jobs[0]),
                status="interrupted",
                result={"job_id": "j", "status": "interrupted"},
            )
        pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
        assert len(pending) == 1 and rows == [None]

    def test_duplicate_jobs_consume_completions_fifo(self, tmp_path):
        # two manifest entries with identical fingerprints, one completion:
        # exactly one resumes, the other still runs
        jobs = [make_job(seed=0), make_job(seed=0)]
        (tmp_path / "first.solutions").write_text("0 1\n")
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            journal_done(journal, jobs[0], "first")
        pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [1]
        assert rows[0]["resumed"] is True and rows[1] is None

    def test_no_journal_means_everything_pending(self, tmp_path):
        jobs = [make_job(seed=0)]
        pending, rows = plan_resume(jobs, tmp_path / JOURNAL_NAME, tmp_path)
        assert len(pending) == 1 and rows == [None]

    def test_completion_fingerprinted_with_removed_backend_field_reruns(
        self, tmp_path, monkeypatch
    ):
        # Journals written while SamplerConfig had a ``backend`` field
        # fingerprinted it; those completions must miss and re-run.
        import repro.serve.journal as journal_module

        job = make_job(seed=0)
        monkeypatch.setattr(
            journal_module,
            "config_to_dict",
            lambda config: {**config_to_dict(config), "backend": "engine"},
        )
        old_fingerprint = job_fingerprint(job)
        monkeypatch.undo()
        assert old_fingerprint != job_fingerprint(job)
        (tmp_path / "old.solutions").write_text("0 1\n")
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            journal.record(
                "done",
                job="old",
                fingerprint=old_fingerprint,
                status="done",
                result={"job_id": "old", "status": "done"},
            )
        pending, rows = plan_resume([job], tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [0] and rows == [None]

    def test_completion_fingerprinted_with_removed_kernel_field_reruns(
        self, tmp_path, monkeypatch
    ):
        # Journals written while SamplerConfig had a ``kernel`` field
        # fingerprinted it; those completions must miss and re-run.
        import repro.serve.journal as journal_module

        job = make_job(seed=0)
        old_fingerprints = []
        for value in (None, "auto", "python"):
            with monkeypatch.context() as patch:
                patch.setattr(
                    journal_module,
                    "config_to_dict",
                    lambda config, value=value: {**config_to_dict(config), "kernel": value},
                )
                old_fingerprints.append(job_fingerprint(job))
        assert job_fingerprint(job) not in old_fingerprints
        (tmp_path / "old.solutions").write_text("0 1\n")
        with JobJournal(tmp_path / JOURNAL_NAME) as journal:
            for fingerprint in old_fingerprints:
                journal.record(
                    "done",
                    job="old",
                    fingerprint=fingerprint,
                    status="done",
                    result={"job_id": "old", "status": "done"},
                )
        pending, rows = plan_resume([job], tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [0] and rows == [None]

    def test_edited_cnf_file_is_not_resumed(self, tmp_path):
        from repro.serve import SamplingService

        cnf = tmp_path / "fig1.cnf"
        cnf.write_text(FIG1_DIMACS)
        job = SamplingJob.build(
            {"path": str(cnf)}, num_solutions=4,
            config=SamplerConfig(batch_size=32, seed=0), job_id="p",
        )
        with SamplingService(num_workers=0, journal=tmp_path / JOURNAL_NAME) as service:
            assert service.result(service.submit(job)).status == "done"
        (tmp_path / "p.solutions").write_text("0 1\n")
        pending, rows = plan_resume([job], tmp_path / JOURNAL_NAME, tmp_path)
        assert pending == [] and rows[0]["resumed"] is True  # unchanged file
        cnf.write_text(FIG1_DIMACS + "1 0\n")
        pending, rows = plan_resume([job], tmp_path / JOURNAL_NAME, tmp_path)
        assert [index for index, _job in pending] == [0] and rows == [None]


def run_cli(*arguments, **popen_kwargs):
    source_root = Path(__file__).resolve().parents[2] / "src"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = (
        f"{source_root}{os.pathsep}{environment['PYTHONPATH']}"
        if environment.get("PYTHONPATH")
        else str(source_root)
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
        env=environment,
        **popen_kwargs,
    )


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cnf"
    path.write_text(FIG1_DIMACS)
    return path


def write_manifest(tmp_path, fig1_path, extra_jobs=()):
    manifest = tmp_path / "jobs.json"
    manifest.write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "id": "alpha",
                        "path": str(fig1_path),
                        "num_solutions": 8,
                        "config": {"batch_size": 32, "seed": 0},
                    },
                    {
                        "id": "beta",
                        "path": str(fig1_path),
                        "num_solutions": 8,
                        "config": {"batch_size": 32, "seed": 1},
                    },
                    *extra_jobs,
                ]
            }
        )
    )
    return manifest


class TestResumeCli:
    def test_resume_of_finished_run_submits_nothing(self, fig1_path, tmp_path):
        manifest = write_manifest(tmp_path, fig1_path)
        out_dir = tmp_path / "out"
        first = run_cli("serve", str(manifest), "-o", str(out_dir))
        assert first.returncode == 0, first.stderr
        resumed = run_cli("serve", str(manifest), "--resume", str(out_dir))
        assert resumed.returncode == 0, resumed.stderr
        assert "2/2 jobs already complete" in resumed.stdout
        assert "running 0" in resumed.stdout
        results = json.loads((out_dir / "results.json").read_text())
        assert [row["job_id"] for row in results] == ["alpha", "beta"]
        assert all(row.get("resumed") is True for row in results)

    def test_resume_runs_exactly_the_unfinished_jobs(self, fig1_path, tmp_path):
        manifest = write_manifest(tmp_path, fig1_path)
        out_dir = tmp_path / "out"
        first = run_cli("serve", str(manifest), "-o", str(out_dir))
        assert first.returncode == 0, first.stderr
        # simulate a crash that lost one job's output
        (out_dir / "beta.solutions").unlink()
        resumed = run_cli("serve", str(manifest), "--resume", str(out_dir))
        assert resumed.returncode == 0, resumed.stderr
        assert "1/2 jobs already complete" in resumed.stdout
        assert "running 1" in resumed.stdout
        results = json.loads((out_dir / "results.json").read_text())
        by_id = {row["job_id"]: row for row in results}
        assert by_id["alpha"].get("resumed") is True
        assert by_id["beta"]["status"] == "done"
        assert "resumed" not in by_id["beta"]
        assert (out_dir / "beta.solutions").read_text().strip()

    def test_resume_rejects_conflicting_output_dir(self, fig1_path, tmp_path):
        manifest = write_manifest(tmp_path, fig1_path)
        completed = run_cli(
            "serve", str(manifest),
            "--resume", str(tmp_path / "a"), "-o", str(tmp_path / "b"),
        )
        assert completed.returncode == 2
        assert "--resume" in completed.stderr


class TestDrainOnSignal:
    def test_sigterm_drains_checkpoints_and_exits_130(self, fig1_path, tmp_path):
        # one quick job plus one unreachable-target job that would run for
        # minutes: SIGTERM must checkpoint what finished and exit 130 with a
        # resume hint, leaving a "drain" record in the journal
        manifest = write_manifest(
            tmp_path,
            fig1_path,
            extra_jobs=[
                {
                    "id": "endless",
                    "path": str(fig1_path),
                    "num_solutions": 10**9,
                    "config": {
                        "batch_size": 32,
                        "seed": 2,
                        "max_rounds": 10**6,
                        "stall_rounds": None,
                    },
                }
            ],
        )
        out_dir = tmp_path / "out"
        source_root = Path(__file__).resolve().parents[2] / "src"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(source_root)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(manifest),
             "-o", str(out_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            # wait until the first job's output proves the run is underway
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                if (out_dir / "beta.solutions").exists():
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.05)
            assert process.poll() is None, process.communicate()[1]
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 130, stderr
        assert "drain requested" in stderr
        assert "--resume" in stderr  # the resume hint
        records = read_journal(out_dir / JOURNAL_NAME)
        assert any(record["type"] == "drain" for record in records)
        results = json.loads((out_dir / "results.json").read_text())
        by_id = {row["job_id"]: row for row in results}
        assert by_id["alpha"]["status"] == "done"
        assert by_id["beta"]["status"] == "done"
        assert by_id["endless"]["status"] == "interrupted"
        # completed jobs' outputs were flushed incrementally before the drain
        assert (out_dir / "alpha.solutions").read_text().strip()
