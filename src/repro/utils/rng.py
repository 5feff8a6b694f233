"""Deterministic random number generation helpers.

Every stochastic component of the library (samplers, instance generators,
initializers) takes either a seed or a :class:`numpy.random.Generator`.  This
module centralises construction so that experiments are reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

# Public alias so that callers do not need to import numpy for type hints.
RandomState = np.random.Generator

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def new_rng(seed: SeedLike = None) -> RandomState:
    """Return a :class:`numpy.random.Generator` from a flexible seed input.

    Accepts ``None`` (non-deterministic), an integer seed, an existing
    generator (returned unchanged) or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def derive_seed(seed: SeedLike, *tokens: Iterable) -> int:
    """Derive a stable child seed from a base seed and hashable tokens.

    Useful when an experiment wants per-instance seeds that do not depend on
    iteration order: ``derive_seed(base, instance_name)``.
    """
    base = 0 if seed is None else (seed if isinstance(seed, int) else 0)
    mask = (1 << 64) - 1
    acc = (base * 0x9E3779B97F4A7C15) & mask
    for token in tokens:
        for ch in str(token).encode("utf-8"):
            acc = ((acc ^ ch) * 0x100000001B3) & mask
    return acc % (2**63 - 1)
