"""Unique-solution bookkeeping.

Throughput in Table II is defined as *unique, valid* solutions per second, so
the sampler needs a cheap way to deduplicate millions of candidate
assignments.  :class:`SolutionSet` keys each full assignment by its packed
byte representation and keeps insertion order, so the first ``k`` solutions
can be exported deterministically.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


class SolutionSet:
    """An ordered set of unique boolean assignment vectors.

    With ``project`` (a sequence of 0-based column indices), uniqueness is
    keyed on the *projected* column subset while full-width rows are stored:
    the first full assignment seen for each projected pattern is its witness.
    This is the dedup semantics of projected sampling — ``len(solution_set)``
    counts distinct projected patterns.  ``project=None`` (default) keys on
    the full row, exactly as before.
    """

    def __init__(
        self, num_variables: int, project: Optional[Sequence[int]] = None
    ) -> None:
        if num_variables < 0:
            raise ValueError(f"num_variables must be non-negative, got {num_variables}")
        self.num_variables = num_variables
        self.project: Optional[Tuple[int, ...]] = None
        if project is not None:
            columns = tuple(sorted({int(column) for column in project}))
            if columns and not 0 <= columns[0] <= columns[-1] < num_variables:
                raise ValueError(
                    f"projection columns must lie in [0, {num_variables}), "
                    f"got {columns}"
                )
            # An empty projection means "no projection", not "project onto
            # zero columns" (which would collapse everything to one key).
            self.project = columns or None
        self._keys: set = set()
        self._rows: List[np.ndarray] = []

    def _key_columns(self, matrix: np.ndarray) -> np.ndarray:
        """The column subset uniqueness is keyed on."""
        if self.project is None:
            return matrix
        return matrix[..., list(self.project)]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._rows)

    def add(self, assignment) -> bool:
        """Add one assignment; returns ``True`` when it was new."""
        row = np.asarray(assignment, dtype=bool)
        if row.shape != (self.num_variables,):
            raise ValueError(
                f"expected assignment of shape ({self.num_variables},), got {row.shape}"
            )
        key = np.packbits(self._key_columns(row)).tobytes()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._rows.append(row.copy())
        return True

    def add_batch(self, assignments, mask=None) -> int:
        """Add every (optionally masked) row of a ``(batch, num_variables)`` matrix.

        In-batch duplicates are removed with one packed-row ``np.unique``
        (first occurrence wins, so insertion order matches row order); only
        the batch-unique survivors are checked against the already-stored
        keys.  Returns the number of rows that were new.
        """
        assignments = np.asarray(assignments, dtype=bool)
        if assignments.ndim != 2 or assignments.shape[1] != self.num_variables:
            raise ValueError(
                f"expected (batch, {self.num_variables}) matrix, got {assignments.shape}"
            )
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (assignments.shape[0],):
                raise ValueError("mask length must equal the batch size")
            assignments = assignments[mask]
        if assignments.shape[0] == 0:
            return 0
        packed = np.packbits(self._key_columns(assignments), axis=1)
        if packed.shape[1]:
            # One np.unique over the packed rows viewed as opaque fixed-width
            # blobs — much faster than the axis=0 form, which re-sorts
            # column-wise — keeping the *first* occurrence of each duplicate.
            rows_as_blobs = np.ascontiguousarray(packed).view(
                np.dtype((np.void, packed.shape[1]))
            )
            _, first_occurrence = np.unique(rows_as_blobs.ravel(), return_index=True)
        else:  # zero-width rows are all identical
            first_occurrence = np.zeros(1, dtype=np.intp)
        added = 0
        for row_index in np.sort(first_occurrence):
            key = packed[row_index].tobytes()
            if key in self._keys:
                continue
            self._keys.add(key)
            self._rows.append(assignments[row_index].copy())
            added += 1
        return added

    def contains(self, assignment) -> bool:
        """Whether the assignment (its projected pattern, when projected) is
        already present."""
        row = np.asarray(assignment, dtype=bool)
        return np.packbits(self._key_columns(row)).tobytes() in self._keys

    def to_matrix(self, limit: Optional[int] = None) -> np.ndarray:
        """Return the unique solutions as a ``(count, num_variables)`` matrix."""
        rows = self._rows if limit is None else self._rows[:limit]
        if not rows:
            return np.zeros((0, self.num_variables), dtype=bool)
        return np.stack(rows, axis=0)

    def matrix_since(self, start: int) -> np.ndarray:
        """The solutions stored at positions ``start..`` as a boolean matrix.

        Because insertion order is preserved, ``matrix_since(len_before)``
        after an :meth:`add_batch` is exactly the batch's new unique rows —
        the increment a streaming consumer (``repro.serve``'s round events)
        wants without re-exporting the whole set.
        """
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        rows = self._rows[start:]
        if not rows:
            return np.zeros((0, self.num_variables), dtype=bool)
        return np.stack(rows, axis=0)

    def to_literal_lists(self, limit: Optional[int] = None) -> List[List[int]]:
        """Export solutions as signed DIMACS literal lists (variable order 1..n)."""
        matrix = self.to_matrix(limit)
        result: List[List[int]] = []
        for row in matrix:
            result.append(
                [index + 1 if value else -(index + 1) for index, value in enumerate(row)]
            )
        return result
