"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.cnf.dimacs import parse_dimacs_file, write_dimacs_file
from tests.conftest import FIG1_DIMACS


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cnf"
    path.write_text(FIG1_DIMACS)
    return path


class TestSampleCommand:
    def test_basic_run(self, fig1_path, capsys):
        exit_code = main([
            "sample", str(fig1_path), "-n", "16", "-b", "64", "--seed", "0",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "unique solutions" in captured
        assert "throughput" in captured

    def test_solution_file_written(self, fig1_path, tmp_path, capsys):
        output = tmp_path / "solutions.txt"
        exit_code = main([
            "sample", str(fig1_path), "-n", "8", "-b", "64", "-o", str(output),
        ])
        assert exit_code == 0
        lines = [line for line in output.read_text().splitlines() if line.strip()]
        assert len(lines) >= 8

    def test_unsat_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unsat.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        exit_code = main(["sample", str(path), "-n", "5", "-b", "16"])
        assert exit_code == 1

    def test_cpu_device_option(self, fig1_path, capsys):
        # --device is gone: chunking is SamplerConfig.chunk_size, not a flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", str(fig1_path), "-n", "4", "-b", "16", "--device", "cpu"])
        assert excinfo.value.code == 2
        assert "--device" in capsys.readouterr().err


class TestTransformCommand:
    def test_structure_report(self, fig1_path, capsys):
        exit_code = main(["transform", str(fig1_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "primary inputs        : 6" in captured
        assert "ops reduction" in captured

    def test_verilog_and_bench_export(self, fig1_path, tmp_path, capsys):
        verilog_path = tmp_path / "out.v"
        bench_path = tmp_path / "out.bench"
        exit_code = main([
            "transform", str(fig1_path),
            "--verilog", str(verilog_path), "--bench", str(bench_path),
        ])
        assert exit_code == 0
        assert verilog_path.read_text().startswith("module")
        assert "INPUT(" in bench_path.read_text()


class TestInstancesCommand:
    def test_listing(self, capsys):
        exit_code = main(["instances", "--family", "prod"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Prod-8" in captured

    def test_write_instance(self, tmp_path, capsys):
        exit_code = main([
            "instances", "--write", "75-10-1-q", "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        written = parse_dimacs_file(tmp_path / "75-10-1-q.cnf")
        assert written.num_clauses > 0

    def test_unknown_instance(self, tmp_path):
        with pytest.raises(KeyError):
            main(["instances", "--write", "does-not-exist", "--output-dir", str(tmp_path)])
