"""Per-batch solution-quality metrics.

The paper's headline metric is unique-solution throughput; these helpers
compute the underlying quantities (validity and uniqueness rates) plus the
Hamming-diversity statistics used by the extended ablation benchmarks to show
that the gradient sampler's solutions are not clustered around a single mode.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cnf.formula import CNF


def validity_rate(formula: CNF, assignments: np.ndarray) -> float:
    """Fraction of assignments that satisfy ``formula``."""
    assignments = np.asarray(assignments, dtype=bool)
    if assignments.shape[0] == 0:
        return 0.0
    return float(formula.evaluate_batch(assignments).mean())


def uniqueness_rate(assignments: np.ndarray) -> float:
    """Fraction of assignments that are distinct within the batch."""
    assignments = np.asarray(assignments, dtype=bool)
    if assignments.shape[0] == 0:
        return 0.0
    packed = np.packbits(assignments, axis=1)
    unique = np.unique(packed, axis=0).shape[0]
    return unique / assignments.shape[0]


def hamming_diversity(assignments: np.ndarray, sample_pairs: int = 2000,
                      seed: Optional[int] = 0) -> float:
    """Mean pairwise Hamming distance (normalised to [0, 1]).

    For uniform random vectors the expectation is 0.5; values far below
    indicate the sampler collapsed onto a few nearby solutions.  Pairs are
    subsampled for large batches.
    """
    assignments = np.asarray(assignments, dtype=bool)
    count, width = assignments.shape if assignments.ndim == 2 else (0, 0)
    if count < 2 or width == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    total_pairs = count * (count - 1) // 2
    if total_pairs <= sample_pairs:
        first, second = np.triu_indices(count, k=1)
    else:
        first = rng.integers(0, count, size=sample_pairs)
        second = rng.integers(0, count, size=sample_pairs)
        keep = first != second
        first, second = first[keep], second[keep]
        if first.size == 0:
            return 0.0
    distances = (assignments[first] ^ assignments[second]).sum(axis=1)
    return float(distances.mean() / width)


def pairwise_hamming_histogram(
    assignments: np.ndarray, bins: int = 10
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of normalised pairwise Hamming distances (exact, small batches)."""
    assignments = np.asarray(assignments, dtype=bool)
    count, width = assignments.shape
    if count < 2:
        return np.zeros(bins), np.linspace(0.0, 1.0, bins + 1)
    first, second = np.triu_indices(count, k=1)
    distances = (assignments[first] ^ assignments[second]).sum(axis=1) / width
    return np.histogram(distances, bins=bins, range=(0.0, 1.0))
