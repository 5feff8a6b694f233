"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

They cover the workload generator, the independent checker and a smoke run
of every workload in both modes, plus the refusal to run without sources.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.checker import ClauseChecker, count_duplicate_rows, read_dimacs  # noqa: E402
from perfbench.workloads import WORKLOADS, ColdInline  # noqa: E402

INPUTS = os.path.join(ROOT, "perfbench", ".work", "inputs")
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _jobs(name: str, seed: int, count: int = 24):
    workload = WORKLOADS[name](seed)
    workload.load_inputs(INPUTS)
    return [workload.job(index) for index in range(count)] + workload.warmup(0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jobs_are_deterministic_per_seed(name):
    first, again, other = _jobs(name, 7), _jobs(name, 7), _jobs(name, 8)
    assert first == again
    assert [job.seed for job in first] != [job.seed for job in other]
    assert len({job.seed for job in first}) == len(first)


def test_cold_formulas_have_distinct_signatures_and_equal_clause_counts():
    from repro.cnf.dimacs import parse_dimacs
    from repro.core.signatures import formula_signature

    workload = ColdInline(3)
    workload.load_inputs(INPUTS)
    jobs = [workload.job(index) for index in range(30)]
    jobs += list(itertools.chain.from_iterable(workload.warmup(r) for r in range(3)))
    formulas = [parse_dimacs(job.source) for job in jobs]
    assert len({formula_signature(formula) for formula in formulas}) == len(jobs)
    assert len({formula.num_clauses for formula in formulas}) == 1
    assert len({formula.num_variables for formula in formulas}) == 1
    # Each job's checker is its own formula: base clauses plus its clause.
    assert workload.checker(jobs[0].check).num_clauses == formulas[0].num_clauses


def test_checker_rejects_a_flipped_bit():
    checker = ClauseChecker.from_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n-2 0\n")
    solution = np.array([[True, False, True]])
    assert checker.satisfied(solution).all()
    for column in range(3):
        flipped = solution.copy()
        flipped[0, column] = not flipped[0, column]
        assert not checker.satisfied(flipped)[0]


def test_checker_agrees_with_a_clause_loop_on_random_formulas():
    rng = np.random.default_rng(0)
    rows = np.array(list(itertools.product([False, True], repeat=6)))
    for _ in range(50):
        clauses = [
            [int(variable) * int(rng.choice([-1, 1])) for variable in
             rng.choice(np.arange(1, 7), size=rng.integers(1, 4), replace=False)]
            for _ in range(rng.integers(1, 12))
        ]
        expected = [
            all(any(row[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
            for row in rows
        ]
        assert ClauseChecker(6, clauses).satisfied(rows).tolist() == expected


def test_read_dimacs_tolerates_comments_trailers_and_stray_zeros():
    text = "c a comment\np cnf 4 2\n1 -2\n 0 0\nc mid\n3 4 0\n%\n0\n"
    num_variables, clauses = read_dimacs(text)
    assert num_variables == 4
    assert [clause.tolist() for clause in clauses] == [[1, -2], [3, 4]]


def test_duplicate_rows_are_counted():
    rows = np.array([[True, False], [False, True], [True, False]])
    assert count_duplicate_rows(rows) == 1


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_a_smoke_run(name, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    assert record["check"]["bad_rows"] == 0 and record["check"]["rows_checked"] > 0
    assert record["provenance"]["workload_seed"] == 1
    if not trace:
        assert result["attempted"] >= 100  # enough jobs for the p90


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_inline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
