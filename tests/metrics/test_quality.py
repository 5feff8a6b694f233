"""Tests for solution-quality metrics (repro.metrics.quality)."""

import numpy as np

from repro.cnf.formula import CNF
from repro.metrics.quality import (
    hamming_diversity,
    pairwise_hamming_histogram,
    uniqueness_rate,
    validity_rate,
)


class TestValidityRate:
    def test_known_fraction(self, tiny_sat_formula):
        assignments = np.array(
            [[False, True, False], [True, False, False], [True, True, True]]
        )
        # Rows 0 and 2 satisfy, row 1 does not.
        assert validity_rate(tiny_sat_formula, assignments) == 2 / 3

    def test_empty_batch(self, tiny_sat_formula):
        assert validity_rate(tiny_sat_formula, np.zeros((0, 3), dtype=bool)) == 0.0


class TestUniquenessRate:
    def test_all_unique(self):
        assert uniqueness_rate(np.eye(3, dtype=bool)) == 1.0

    def test_duplicates_lower_rate(self):
        matrix = np.array([[True, False], [True, False], [False, True], [False, True]])
        assert uniqueness_rate(matrix) == 0.5

    def test_empty(self):
        assert uniqueness_rate(np.zeros((0, 2), dtype=bool)) == 0.0


class TestHammingDiversity:
    def test_identical_rows_zero(self):
        matrix = np.tile(np.array([[True, False, True]]), (5, 1))
        assert hamming_diversity(matrix) == 0.0

    def test_complementary_rows_one(self):
        matrix = np.array([[True, True], [False, False]])
        assert hamming_diversity(matrix) == 1.0

    def test_random_matrix_near_half(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((200, 64)) < 0.5
        assert 0.4 < hamming_diversity(matrix) < 0.6

    def test_single_row_zero(self):
        assert hamming_diversity(np.array([[True, False]])) == 0.0

    def test_subsampling_path(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((300, 16)) < 0.5
        value = hamming_diversity(matrix, sample_pairs=100, seed=2)
        assert 0.3 < value < 0.7


class TestHistogramAndBundle:
    def test_histogram_sums_to_pair_count(self):
        matrix = np.array([[True, False], [False, True], [True, True]])
        counts, edges = pairwise_hamming_histogram(matrix, bins=4)
        assert counts.sum() == 3  # C(3, 2)
        assert len(edges) == 5
