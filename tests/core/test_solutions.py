"""Tests for unique-solution bookkeeping (repro.core.solutions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solutions import SolutionSet


class TestAdd:
    def test_add_and_deduplicate(self):
        solutions = SolutionSet(3)
        assert solutions.add(np.array([True, False, True]))
        assert not solutions.add(np.array([True, False, True]))
        assert len(solutions) == 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            SolutionSet(3).add(np.array([True, False]))

    def test_contains(self):
        solutions = SolutionSet(2)
        solutions.add(np.array([True, False]))
        assert solutions.contains(np.array([True, False]))
        assert not solutions.contains(np.array([False, False]))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SolutionSet(-1)


class TestAddBatch:
    def test_masked_addition(self):
        solutions = SolutionSet(2)
        matrix = np.array([[True, True], [False, False], [True, True]])
        added = solutions.add_batch(matrix, mask=np.array([True, False, True]))
        assert added == 1  # third row duplicates the first
        assert len(solutions) == 1

    def test_unmasked_addition(self):
        solutions = SolutionSet(2)
        added = solutions.add_batch(np.array([[True, False], [False, True]]))
        assert added == 2

    def test_incremental_dedup_across_batches(self):
        solutions = SolutionSet(2)
        solutions.add_batch(np.array([[True, False]]))
        added = solutions.add_batch(np.array([[True, False], [False, False]]))
        assert added == 1
        assert len(solutions) == 2

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            SolutionSet(2).add_batch(np.zeros((2, 2), dtype=bool), mask=np.array([True]))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            SolutionSet(2).add_batch(np.zeros((2, 3), dtype=bool))

    def test_empty_batch(self):
        assert SolutionSet(2).add_batch(np.zeros((0, 2), dtype=bool)) == 0

    def test_in_batch_duplicates_keep_first_occurrence_order(self):
        solutions = SolutionSet(2)
        matrix = np.array(
            [[True, True], [False, True], [True, True], [False, False], [False, True]]
        )
        assert solutions.add_batch(matrix) == 3
        assert solutions.to_matrix().tolist() == [
            [True, True],
            [False, True],
            [False, False],
        ]

    def test_batch_rows_do_not_leak_duplicates_into_count(self):
        solutions = SolutionSet(1)
        matrix = np.array([[True]] * 10 + [[False]] * 10)
        assert solutions.add_batch(matrix) == 2
        assert len(solutions) == 2

    def test_masked_duplicates_preserve_order(self):
        solutions = SolutionSet(2)
        matrix = np.array([[True, False], [True, True], [True, False], [False, True]])
        mask = np.array([True, False, True, True])
        assert solutions.add_batch(matrix, mask) == 2
        assert solutions.to_matrix().tolist() == [[True, False], [False, True]]

    def test_zero_width_rows_collapse_to_one(self):
        solutions = SolutionSet(0)
        assert solutions.add_batch(np.zeros((5, 0), dtype=bool)) == 1
        assert solutions.add_batch(np.zeros((3, 0), dtype=bool)) == 0

    def test_large_batch_matches_row_by_row_reference(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((500, 6)) < 0.5
        batch_set = SolutionSet(6)
        reference_set = SolutionSet(6)
        batch_added = batch_set.add_batch(matrix)
        reference_added = sum(reference_set.add(row) for row in matrix)
        assert batch_added == reference_added
        assert np.array_equal(batch_set.to_matrix(), reference_set.to_matrix())


class TestExport:
    def test_to_matrix_preserves_insertion_order(self):
        solutions = SolutionSet(2)
        solutions.add(np.array([True, False]))
        solutions.add(np.array([False, True]))
        matrix = solutions.to_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[0].tolist() == [True, False]

    def test_to_matrix_limit(self):
        solutions = SolutionSet(1)
        for value in (True, False):
            solutions.add(np.array([value]))
        assert solutions.to_matrix(limit=1).shape == (1, 1)

    def test_empty_matrix(self):
        assert SolutionSet(4).to_matrix().shape == (0, 4)

    def test_to_literal_lists(self):
        solutions = SolutionSet(3)
        solutions.add(np.array([True, False, True]))
        assert solutions.to_literal_lists() == [[1, -2, 3]]

    def test_iteration(self):
        solutions = SolutionSet(1)
        solutions.add(np.array([True]))
        assert [row.tolist() for row in solutions] == [[True]]


class TestExtendUnique:
    def test_rows_are_stored_as_given_and_keyed_on_demand(self):
        solutions = SolutionSet(2)
        rows = np.array([[True, False], [False, False]])
        assert solutions.extend_unique(rows) == 2
        assert solutions._blocks[-1] is rows  # noqa: SLF001 - no copy
        assert len(solutions) == 2
        assert solutions.contains(np.array([False, False]))
        assert not solutions.add(np.array([True, False]))
        assert solutions.add_batch(np.array([[True, False], [True, True]])) == 1
        assert solutions.to_matrix().tolist() == [
            [True, False], [False, False], [True, True]
        ]

    def test_empty_and_zero_width(self):
        solutions = SolutionSet(0)
        assert solutions.extend_unique(np.zeros((0, 0), dtype=bool)) == 0
        assert solutions.extend_unique(np.zeros((1, 0), dtype=bool)) == 1
        assert solutions.add_batch(np.zeros((3, 0), dtype=bool)) == 0
        assert len(solutions) == 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            SolutionSet(3).extend_unique(np.zeros((2, 2), dtype=bool))


def _rows(values, width):
    """Integers as boolean rows of ``width`` bits (most significant first)."""
    bits = [[bool(value >> (width - 1 - bit) & 1) for bit in range(width)] for value in values]
    return np.array(bits, dtype=bool).reshape(len(values), width)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_extend_unique_interleaved_matches_a_set_of_tuples(data):
    """extend_unique, add_batch, add, contains and matrix_since in any order
    agree with a Python model: an ordered list of rows and a set of keys."""
    width = data.draw(st.integers(1, 6), label="width")
    project = data.draw(
        st.none() | st.lists(st.integers(0, width - 1), min_size=1, unique=True),
        label="project",
    )
    columns = sorted(project) if project is not None else list(range(width))
    solutions = SolutionSet(width, project=project)
    stored, seen = [], set()

    def key(row):
        return tuple(row[column] for column in columns)

    row_values = st.integers(0, 2**width - 1)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        operation = data.draw(
            st.sampled_from(["extend", "add_batch", "add", "contains", "since"])
        )
        if operation == "extend":
            # The caller's guarantee: rows new to the set and to each other.
            fresh = []
            for row in _rows(data.draw(st.lists(row_values, max_size=8)), width).tolist():
                if key(row) not in seen:
                    seen.add(key(row))
                    fresh.append(row)
            stored.extend(fresh)
            matrix = np.array(fresh, dtype=bool).reshape(len(fresh), width)
            assert solutions.extend_unique(matrix) == len(fresh)
        elif operation == "add_batch":
            matrix = _rows(data.draw(st.lists(row_values, max_size=8)), width)
            mask = data.draw(
                st.lists(st.booleans(), min_size=len(matrix), max_size=len(matrix))
            )
            added = 0
            for row, keep in zip(matrix.tolist(), mask):
                if keep and key(row) not in seen:
                    seen.add(key(row))
                    stored.append(row)
                    added += 1
            assert solutions.add_batch(matrix, np.array(mask, dtype=bool)) == added
        elif operation == "add":
            (row,) = _rows([data.draw(row_values)], width).tolist()
            new = key(row) not in seen
            if new:
                seen.add(key(row))
                stored.append(row)
            assert solutions.add(np.array(row)) is new
        elif operation == "contains":
            (row,) = _rows([data.draw(row_values)], width).tolist()
            assert solutions.contains(np.array(row)) is (key(row) in seen)
        else:
            start = data.draw(st.integers(0, len(stored)))
            assert solutions.matrix_since(start).tolist() == stored[start:]
        assert len(solutions) == len(stored)
    assert solutions.to_matrix().tolist() == stored
