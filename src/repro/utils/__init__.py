"""Shared utilities: seeded randomness and validation."""

from repro.utils.rng import RandomState, new_rng
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
)

__all__ = [
    "RandomState",
    "new_rng",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]
