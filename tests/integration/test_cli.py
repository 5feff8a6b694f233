"""End-to-end CLI tests: ``python -m repro.cli`` as a real subprocess.

The in-process CLI tests (tests/utils/test_cli.py) cover argument handling;
these verify the installed entry point actually works from a shell — module
resolution, exit codes, files on disk — for every subcommand, including the
``serve`` batch front end with a two-job manifest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import FIG1_DIMACS

#: Generous bound per CLI invocation (spawned workers import numpy etc.).
TIMEOUT = 180


def run_cli(*arguments, cwd=None, env_extra=None):
    source_root = Path(__file__).resolve().parents[2] / "src"
    environment = {**os.environ, **(env_extra or {})}
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
        cwd=cwd,
    )


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cnf"
    path.write_text(FIG1_DIMACS)
    return path


class TestSampleSubcommand:
    def test_sample_end_to_end(self, fig1_path, tmp_path):
        output = tmp_path / "solutions.txt"
        completed = run_cli(
            "sample", str(fig1_path), "-n", "8", "-b", "32", "--seed", "0",
            "-o", str(output),
        )
        assert completed.returncode == 0, completed.stderr
        assert "unique solutions" in completed.stdout
        assert output.exists()
        assert sum(1 for line in output.read_text().splitlines() if line.strip()) >= 1

    def test_sample_trace_flag_scopes_the_run(self, fig1_path, tmp_path):
        # --trace FILE records the run there; --trace off records nothing,
        # also where REPRO_TRACE names a file.
        trace = tmp_path / "run.jsonl"
        leak = tmp_path / "leak.jsonl"
        base = ("sample", str(fig1_path), "-n", "8", "-b", "32")
        completed = run_cli(*base, "--trace", str(trace))
        assert completed.returncode == 0, completed.stderr
        assert '"pipeline.sample_cnf"' in trace.read_text()
        completed = run_cli(*base, "--trace", "off", env_extra={"REPRO_TRACE": str(leak)})
        assert completed.returncode == 0, completed.stderr
        assert not leak.exists()

    @pytest.mark.parametrize(
        "flag", [("--array-backend", "numpy"), ("--kernel", "auto")]
    )
    def test_bad_option_is_a_usage_error(self, fig1_path, flag):
        # Both flags are gone: learning is float32, the platform picks the tier.
        completed = run_cli("sample", str(fig1_path), *flag)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert "error:" in completed.stderr and flag[1] in completed.stderr


class TestTransformSubcommand:
    def test_transform_reports_structure(self, fig1_path, tmp_path):
        verilog = tmp_path / "fig1.v"
        completed = run_cli("transform", str(fig1_path), "--verilog", str(verilog))
        assert completed.returncode == 0, completed.stderr
        assert "constrained inputs" in completed.stdout
        assert verilog.exists()
        assert "module" in verilog.read_text()


class TestBadInputFile:
    @pytest.mark.parametrize("command", ["sample", "transform"])
    @pytest.mark.parametrize("case", ["missing", "malformed"])
    def test_bad_cnf_is_a_one_line_error(self, tmp_path, command, case):
        path = tmp_path / f"{case}.cnf"
        if case == "malformed":
            path.write_text("p cnf 2 1\n1 x 0\n")
        completed = run_cli(command, str(path))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro-sat: error: {path}: ")
        if case == "malformed":
            assert lines[0].endswith("line 2: expected integer literal, got 'x'")
        else:
            assert "No such file" in lines[0]

    def test_reference_flag_is_gone(self, tmp_path):
        path = tmp_path / "fig1.cnf"
        path.write_text(FIG1_DIMACS)
        completed = run_cli("transform", str(path), "--reference")
        assert completed.returncode == 2
        assert "unrecognized arguments: --reference" in completed.stderr

    def test_no_simplify_flag_is_gone(self, tmp_path):
        # Algorithm 1 always simplifies: no flag turns a step of it off.
        path = tmp_path / "fig1.cnf"
        path.write_text(FIG1_DIMACS)
        completed = run_cli("transform", str(path), "--no-simplify")
        assert completed.returncode == 2
        assert "unrecognized arguments: --no-simplify" in completed.stderr


class TestInstancesSubcommand:
    def test_list_registry(self):
        completed = run_cli("instances", "--family", "or")
        assert completed.returncode == 0, completed.stderr
        assert "or-50-10-7-UC-10" in completed.stdout

    def test_write_instance(self, tmp_path):
        completed = run_cli(
            "instances", "--write", "or-50-10-7-UC-10", "--output-dir", str(tmp_path)
        )
        assert completed.returncode == 0, completed.stderr
        assert (tmp_path / "or-50-10-7-UC-10.cnf").exists()


class TestServeSubcommand:
    def write_manifest(self, tmp_path, fig1_path):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "id": "plain",
                            "path": str(fig1_path),
                            "num_solutions": 8,
                            "config": {"batch_size": 32, "seed": 0},
                        },
                        {
                            "id": "folio",
                            "path": str(fig1_path),
                            "num_solutions": 8,
                            "config": {"batch_size": 32, "seed": 1},
                            "portfolio": 2,
                        },
                    ]
                }
            )
        )
        return manifest

    def test_serve_inline(self, fig1_path, tmp_path):
        manifest = self.write_manifest(tmp_path, fig1_path)
        out_dir = tmp_path / "out"
        completed = run_cli("serve", str(manifest), "-o", str(out_dir))
        assert completed.returncode == 0, completed.stderr
        assert "2 jobs" in completed.stdout
        results = json.loads((out_dir / "results.json").read_text())
        assert [row["job_id"] for row in results] == ["plain", "folio"]
        assert all(row["status"] == "done" for row in results)
        assert len(results[1]["members"]) == 2
        for job_id in ("plain", "folio"):
            solutions = (out_dir / f"{job_id}.solutions").read_text()
            assert solutions.strip(), f"no solutions written for {job_id}"

    def test_serve_with_worker_pool(self, fig1_path, tmp_path):
        manifest = self.write_manifest(tmp_path, fig1_path)
        out_dir = tmp_path / "out-pool"
        completed = run_cli("serve", str(manifest), "--workers", "2", "-o", str(out_dir))
        assert completed.returncode == 0, completed.stderr
        results = json.loads((out_dir / "results.json").read_text())
        assert all(row["status"] == "done" for row in results)

    def test_serve_bad_manifest_fails_loudly(self, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text('[{"num_solutions": 3}]')
        completed = run_cli("serve", str(manifest))
        assert completed.returncode != 0
        assert "exactly one of" in completed.stderr

    def test_serve_unknown_manifest_key_is_a_usage_error(self, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text('[{"instance": "or-50-10-7-UC-10", "colour": "red"}]')
        completed = run_cli("serve", str(manifest))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.strip().splitlines() == [
            "repro-sat: error: job #0: unknown keys ['colour']"
        ]

    @pytest.mark.parametrize("how", ["flag"])
    def test_serve_integer_retry_means_max_attempts(self, fig1_path, tmp_path, how):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path), "num_solutions": 4}]))
        completed = run_cli("serve", str(manifest), "--no-store", "--retry", "3")
        assert completed.returncode == 0, completed.stderr

    def test_serve_ignores_repro_retry(self, fig1_path, tmp_path):
        # The policy is --retry's alone: the environment is not read, so
        # even a malformed value changes nothing.
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path), "num_solutions": 4}]))
        completed = run_cli(
            "serve", str(manifest), "--no-store", env_extra={"REPRO_RETRY": "bogus=1"}
        )
        assert completed.returncode == 0, completed.stderr

    def test_serve_no_supervise_flag_is_gone(self, fig1_path, tmp_path):
        # Every pool is supervised: no flag opts out.
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path)}]))
        completed = run_cli("serve", str(manifest), "--no-supervise")
        assert completed.returncode == 2
        assert "unrecognized arguments: --no-supervise" in completed.stderr

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"retry": 3}, "unknown keys ['retry']"),
            ({"config": {"telemetry": "mem"}}, "'telemetry'"),
        ],
    )
    def test_serve_retry_and_telemetry_manifest_keys_are_gone(
        self, fig1_path, tmp_path, entry, named
    ):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path), **entry}]))
        completed = run_cli("serve", str(manifest), "--no-store")
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        (line,) = completed.stderr.strip().splitlines()
        assert line.startswith("repro-sat: error: job #0: ") and named in line

    def test_serve_bad_retry_is_a_usage_error(self, fig1_path, tmp_path):
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path)}]))
        out_dir = tmp_path / "out"
        completed = run_cli(
            "serve", str(manifest), "--no-store", "--retry", "bogus=1", "-o", str(out_dir)
        )
        assert completed.returncode == 2
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro-sat: error: ")
        assert "'bogus'" in lines[0]
        assert not out_dir.exists()  # rejected before any output is written

    def test_serve_kernel_flag_and_manifest_key_are_gone(self, fig1_path, tmp_path):
        # The platform picks the engine tier: neither the flag nor a job
        # config key selects it any more.
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path)}]))
        completed = run_cli("serve", str(manifest), "--kernel", "auto")
        assert completed.returncode == 2
        assert "unrecognized arguments: --kernel auto" in completed.stderr
        manifest.write_text(
            json.dumps([{"path": str(fig1_path), "config": {"kernel": "auto"}}])
        )
        completed = run_cli("serve", str(manifest))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert "job #0" in completed.stderr and "'kernel'" in completed.stderr


    def test_serve_array_backend_flag_is_gone(self, fig1_path, tmp_path):
        # Learning always runs in float32: no flag picks a dtype.
        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps([{"path": str(fig1_path)}]))
        completed = run_cli("serve", str(manifest), "--array-backend", "numpy")
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert "unrecognized arguments: --array-backend numpy" in completed.stderr


class TestNativeSwitch:
    @pytest.mark.parametrize("command", ["sample", "serve"])
    def test_bad_repro_native_is_a_one_line_error(self, fig1_path, tmp_path, command):
        target = fig1_path
        if command == "serve":
            target = tmp_path / "jobs.json"
            target.write_text(json.dumps([{"path": str(fig1_path)}]))
        completed = run_cli(command, str(target), env_extra={"REPRO_NATIVE": "native"})
        assert completed.returncode == 2
        assert completed.stderr.strip().splitlines() == [
            "repro-sat: error: $REPRO_NATIVE must be unset, 'auto' or 'off', got 'native'"
        ]
