"""Unique-solution bookkeeping.

Throughput in Table II is defined as *unique, valid* solutions per second, so
the sampler needs a cheap way to deduplicate millions of candidate
assignments.  :class:`SolutionSet` keys each full assignment by its packed
byte representation and keeps insertion order, so the first ``k`` solutions
can be exported deterministically.  Rows are stored in the blocks they
arrived in, so exporting a batch's new rows is one concatenation.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


def packed_rows(matrix: np.ndarray) -> np.ndarray:
    """``np.packbits(matrix, axis=1)`` of a boolean ``(batch, width)`` matrix.

    The transposed view of variable-major rows (the sampler's candidates) is
    packed down its contiguous rows, not through a transposing copy: eight
    rows OR into one byte row, in ``uint64`` lanes (bytes hold 0 or 1, so no
    shift crosses a byte).
    """
    if matrix.flags.c_contiguous or not matrix.flags.f_contiguous:
        return np.packbits(matrix, axis=1)
    rows = matrix.T.view(np.uint8)
    width, batch = rows.shape
    if width % 8 or batch % 8:
        rows = np.pad(rows, ((0, -width % 8), (0, -batch % 8)))
    octets = rows.view(np.uint64).reshape(rows.shape[0] // 8, 8, -1)
    packed = octets[:, 0] << 7
    for bit in range(1, 8):
        packed |= octets[:, bit] << (7 - bit)
    return np.ascontiguousarray(packed.view(np.uint8)[:, :batch].T)


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
        #: ``(k, num_variables)`` blocks of stored rows, in insertion order.
        self._blocks: List[np.ndarray] = []
        self._count = 0

    def _key_columns(self, matrix: np.ndarray) -> np.ndarray:
        """The column subset uniqueness is keyed on."""
        if self.project is None:
            return matrix
        return matrix[..., list(self.project)]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[np.ndarray]:
        return itertools.chain.from_iterable(self._blocks)

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
        self._blocks.append(row.copy()[np.newaxis])
        self._count += 1
        return True

    def add_batch(self, assignments, mask=None) -> int:
        """Add every (optionally masked) row of a ``(batch, num_variables)`` matrix.

        Rows are keyed by their bytes under :func:`packed_rows`.  In-batch
        duplicates are removed with one packed-row ``np.unique`` (first
        occurrence wins, so insertion order matches row order); only the
        batch-unique survivors are checked against the already-stored keys,
        and the new rows are unpacked in one call.  Returns the number of
        rows that were new.
        """
        assignments = np.asarray(assignments, dtype=bool)
        if assignments.ndim != 2 or assignments.shape[1] != self.num_variables:
            raise ValueError(
                f"expected (batch, {self.num_variables}) matrix, got {assignments.shape}"
            )
        packed = packed_rows(assignments)
        keys = packed
        if self.project is not None:
            keys = packed_rows(self._key_columns(assignments))
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (assignments.shape[0],):
                raise ValueError("mask length must equal the batch size")
            packed, keys = packed[mask], keys[mask]
        if packed.shape[0] == 0:
            return 0
        if keys.shape[1]:
            # One np.unique over the packed rows viewed as opaque fixed-width
            # blobs — much faster than the axis=0 form, which re-sorts
            # column-wise — keeping the *first* occurrence of each duplicate.
            blobs = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1])))
            _, first_occurrence = np.unique(blobs.ravel(), return_index=True)
            order = np.sort(first_occurrence).tolist()
            candidates = blobs.ravel()[order].tolist()
        else:  # zero-width rows are all identical
            order, candidates = [0], [b""]
        new_rows = []
        for row_index, key in zip(order, candidates):
            if key not in self._keys:
                self._keys.add(key)
                new_rows.append(row_index)
        if new_rows:
            unpacked = np.unpackbits(packed[new_rows], axis=1, count=self.num_variables)
            self._blocks.append(unpacked.view(bool))
            self._count += len(new_rows)
        return len(new_rows)

    def contains(self, assignment) -> bool:
        """Whether the assignment (its projected pattern, when projected) is
        already present."""
        row = np.asarray(assignment, dtype=bool)
        return np.packbits(self._key_columns(row)).tobytes() in self._keys

    def _matrix(self, rows: range) -> np.ndarray:
        """The stored rows at positions ``rows`` (a step-1 range), copied."""
        pieces, offset = [], 0
        for block in self._blocks:
            pieces.append(block[max(rows.start - offset, 0) : max(rows.stop - offset, 0)])
            offset += len(block)
        return np.concatenate(pieces or [np.zeros((0, self.num_variables), dtype=bool)])

    def to_matrix(self, limit: Optional[int] = None) -> np.ndarray:
        """Return the unique solutions as a ``(count, num_variables)`` matrix."""
        return self._matrix(range(self._count)[:limit])

    def matrix_since(self, start: int) -> np.ndarray:
        """The solutions stored at positions ``start..`` as a boolean matrix.

        Because insertion order is preserved, ``matrix_since(len_before)``
        after an :meth:`add_batch` is exactly the batch's new unique rows —
        the increment a streaming consumer (``repro.serve``'s round events)
        wants without re-exporting the whole set.
        """
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        return self._matrix(range(self._count)[start:])

    def to_literal_lists(self, limit: Optional[int] = None) -> List[List[int]]:
        """Export solutions as signed DIMACS literal lists (variable order 1..n)."""
        matrix = self.to_matrix(limit)
        result: List[List[int]] = []
        for row in matrix:
            result.append(
                [index + 1 if value else -(index + 1) for index, value in enumerate(row)]
            )
        return result
