"""Tests for solution/result I/O (repro.io)."""

import json

import numpy as np
import pytest

from repro.core.solutions import SolutionSet
from repro.eval.runner import RunRecord
from repro.io.results_io import run_records_to_csv, run_records_to_json
from repro.io.solutions_io import (
    parse_solutions_text,
    read_solutions_file,
    solutions_to_text,
    write_solutions_file,
)


def _solution_set():
    solutions = SolutionSet(4)
    solutions.add(np.array([True, False, True, False]))
    solutions.add(np.array([False, True, False, True]))
    return solutions


class TestSolutionsIO:
    def test_text_format(self):
        text = solutions_to_text(_solution_set())
        assert text.splitlines() == ["1 -2 3 -4 0", "-1 2 -3 4 0"]

    def test_without_terminator(self):
        text = solutions_to_text(_solution_set(), terminate_with_zero=False)
        assert text.splitlines()[0] == "1 -2 3 -4"

    def test_roundtrip(self):
        original = _solution_set()
        parsed = parse_solutions_text(solutions_to_text(original), num_variables=4)
        assert np.array_equal(parsed.to_matrix(), original.to_matrix())

    def test_comments_skipped(self):
        parsed = parse_solutions_text("c comment\n# another\n1 -2 0\n", num_variables=2)
        assert len(parsed) == 1

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError):
            parse_solutions_text("1 5 0\n", num_variables=3)

    def test_empty_set(self):
        assert solutions_to_text(SolutionSet(3)) == ""

    def test_file_roundtrip(self, tmp_path):
        original = _solution_set()
        path = write_solutions_file(original, tmp_path / "solutions.txt")
        loaded = read_solutions_file(path, num_variables=4)
        assert np.array_equal(loaded.to_matrix(), original.to_matrix())

    def test_limit(self):
        text = solutions_to_text(_solution_set(), limit=1)
        assert len(text.splitlines()) == 1


class TestResultsIO:
    def _records(self):
        return [
            RunRecord("this-work", "inst-a", num_unique=100, elapsed_seconds=0.5,
                      num_requested=100, transform_seconds=0.1),
            RunRecord("cmsgen-style", "inst-a", num_unique=40, elapsed_seconds=2.0,
                      num_requested=100, timed_out=True),
        ]

    def test_json_export_and_load(self):
        text = run_records_to_json(self._records())
        rows = json.loads(text)
        assert len(rows) == 2
        assert rows[0]["throughput"] == pytest.approx(200.0)
        assert rows[1]["timed_out"] is True

    def test_csv_export(self):
        text = run_records_to_csv(self._records())
        lines = text.strip().splitlines()
        assert lines[0].startswith("sampler_name,instance_name,num_unique")
        assert len(lines) == 3
        assert "this-work" in lines[1]
