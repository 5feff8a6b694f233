"""Tests for the end-to-end pipeline (repro.core.pipeline)."""

import pytest

from repro.cnf.dimacs import write_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.pipeline import load_formula, sample_cnf
from repro.core.transform import transform_cnf
from tests.conftest import FIG1_DIMACS


class TestLoadFormula:
    def test_accepts_cnf_object(self, tiny_sat_formula):
        assert load_formula(tiny_sat_formula) is tiny_sat_formula

    def test_accepts_dimacs_text(self):
        formula = load_formula("p cnf 2 1\n1 2 0\n")
        assert formula.num_clauses == 1

    def test_accepts_path(self, tmp_path, fig1_formula):
        path = tmp_path / "fig1.cnf"
        path.write_text(write_dimacs(fig1_formula))
        formula = load_formula(path)
        assert formula.num_clauses == fig1_formula.num_clauses

    def test_accepts_string_path(self, tmp_path, fig1_formula):
        path = tmp_path / "inst.cnf"
        path.write_text(write_dimacs(fig1_formula))
        formula = load_formula(str(path))
        assert formula.num_variables == 14

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            load_formula(12345)


class TestSampleCnf:
    def test_end_to_end_on_fig1_text(self):
        result = sample_cnf(
            FIG1_DIMACS, num_solutions=16,
            config=SamplerConfig(batch_size=64, seed=0, max_rounds=4),
        )
        assert result.sample.num_unique >= 16
        assert result.transform_seconds > 0
        assert result.sample_seconds > 0
        assert result.total_seconds >= result.sample_seconds
        assert result.throughput > 0

    def test_summary_row(self, fig1_formula):
        result = sample_cnf(
            fig1_formula, num_solutions=8,
            config=SamplerConfig(batch_size=32, seed=0, max_rounds=2),
        )
        row = result.summary()
        assert row["instance"] == "fig1"
        assert row["clauses"] == 21
        assert row["unique_solutions"] >= 1

    def test_precomputed_transform_skips_rerun(self, fig1_formula):
        transform = transform_cnf(fig1_formula)
        result = sample_cnf(
            fig1_formula, num_solutions=4, transform=transform,
            config=SamplerConfig(batch_size=32, seed=0, max_rounds=2),
        )
        assert result.transform is transform

    def test_all_solutions_valid(self, tiny_sat_formula):
        result = sample_cnf(
            tiny_sat_formula, num_solutions=4,
            config=SamplerConfig(batch_size=16, seed=1, max_rounds=4),
        )
        matrix = result.sample.solution_matrix()
        assert tiny_sat_formula.evaluate_batch(matrix).all()
