"""Unique-solution bookkeeping.

Throughput in Table II is defined as *unique, valid* solutions per second, so
the sampler needs a cheap way to deduplicate millions of candidate
assignments.  :class:`SolutionSet` keys each full assignment by its packed
byte representation and keeps insertion order, so the first ``k`` solutions
can be exported deterministically.  Rows are stored in the blocks they
arrived in, so exporting a batch's new rows is one concatenation.

A row is deduplicated once.  The sampler's set runs :meth:`SolutionSet.add_batch`
on every round; a consumer that receives those already-unique rows (a serving
job's member set) appends them with :meth:`SolutionSet.extend_unique`, which
stores them without keying them again.  A second dedup runs only where it can
find something: a replayed attempt, or a merge across portfolio members.
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


def _key_blobs(keys: np.ndarray) -> np.ndarray:
    """Packed key rows of nonzero width as one 1-D array of opaque
    fixed-width blobs; ``.tolist()`` gives each row's key bytes."""
    return np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1]))).ravel()


class SolutionSet:
    """An ordered set of unique boolean assignment vectors.

    With ``project`` (a sequence of 0-based column indices), uniqueness is
    keyed on the *projected* column subset while full-width rows are stored:
    the first full assignment seen for each projected pattern is its witness.
    This is the dedup semantics of projected sampling — ``len(solution_set)``
    counts distinct projected patterns.  ``project=None`` (default) keys on
    the full row, exactly as before.

    Rows appended with :meth:`extend_unique` are keyed lazily: the first
    later :meth:`add`, :meth:`add_batch` or :meth:`contains` keys them, and a
    set nothing probes again never keys them at all.
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
        #: Blocks :meth:`extend_unique` stored whose keys are not in ``_keys``.
        self._unkeyed: List[np.ndarray] = []
        self._count = 0

    def _key_columns(self, matrix: np.ndarray) -> np.ndarray:
        """The column subset uniqueness is keyed on."""
        if self.project is None:
            return matrix
        return matrix[..., list(self.project)]

    def _keyed(self) -> set:
        """The key set, after keying every row :meth:`extend_unique` stored."""
        if self._unkeyed:
            pending = np.concatenate(self._unkeyed)
            self._unkeyed = []
            keys = packed_rows(self._key_columns(pending))
            if keys.shape[1]:
                self._keys.update(_key_blobs(keys).tolist())
            else:  # zero-width rows all share the empty key
                self._keys.add(b"")
        return self._keys

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
        keys = self._keyed()
        if key in keys:
            return False
        keys.add(key)
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
            blobs = _key_blobs(keys)
            _, first_occurrence = np.unique(blobs, return_index=True)
            order = np.sort(first_occurrence).tolist()
            candidates = blobs[order].tolist()
        else:  # zero-width rows are all identical
            order, candidates = [0], [b""]
        stored = self._keyed()
        new_rows = []
        for row_index, key in zip(order, candidates):
            if key not in stored:
                stored.add(key)
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
        return np.packbits(self._key_columns(row)).tobytes() in self._keyed()

    def extend_unique(self, rows: np.ndarray) -> int:
        """Append rows the caller guarantees are new; returns how many.

        ``rows`` must be unique among themselves and absent from the set (on
        the projected columns, when projected) — rows another set's
        :meth:`add_batch` just accepted, such as the sampler's per-round
        :meth:`matrix_since`.  They are stored as given, with no copy,
        packing, ``np.unique`` or key probe, so the caller must not write
        into ``rows`` afterwards (the serving layer marks it read-only).
        """
        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.num_variables:
            raise ValueError(
                f"expected (batch, {self.num_variables}) matrix, got {rows.shape}"
            )
        if rows.shape[0]:
            self._blocks.append(rows)
            self._unkeyed.append(rows)
            self._count += rows.shape[0]
        return rows.shape[0]

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
