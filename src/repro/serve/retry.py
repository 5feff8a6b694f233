"""Per-task retry policy: how many attempts, how spaced, how bounded.

A :class:`RetryPolicy` governs what the service does when a task *fails* —
its worker died mid-task, or the task raised (e.g. a transient artifact
build error).  Failed attempts are re-dispatched with exponential backoff
until the attempt or wall-clock budget runs out; a task whose failures
kept *killing workers* is then quarantined as ``poisoned`` (see
:meth:`repro.serve.service.SamplingService._record_task_failure`) so one
pathological formula cannot grind the pool through its restart budget.

Resolution precedence (weakest first), mirroring the store/kernel knobs:

1. the ``REPRO_RETRY`` environment variable (``"attempts=3,backoff=0.5"``),
2. the service-level policy (``SamplingService(retry=...)``),
3. the per-job override (manifest ``retry`` key / ``submit(retry=...)``),

each layer overriding only the fields it names.  Retry never changes
*results*: a replayed attempt samples with the same seed and the solution
sets dedup exactly, so a job that succeeds after a retry is bitwise
identical to one that never failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

#: Environment variable carrying the process-default retry overrides.
ENV_VAR = "REPRO_RETRY"

#: Spec/manifest key aliases -> :class:`RetryPolicy` field names.
_KEY_ALIASES = {
    "attempts": "max_attempts",
    "max_attempts": "max_attempts",
    "backoff": "backoff_seconds",
    "backoff_seconds": "backoff_seconds",
    "factor": "backoff_factor",
    "backoff_factor": "backoff_factor",
    "max_backoff": "backoff_max_seconds",
    "backoff_max_seconds": "backoff_max_seconds",
    "deadline": "deadline_budget_seconds",
    "deadline_budget_seconds": "deadline_budget_seconds",
}

_INT_FIELDS = ("max_attempts",)


class RetrySpecError(ValueError):
    """A retry spec (env string, manifest object, CLI flag) is malformed."""


@dataclass(frozen=True)
class RetryPolicy:
    """How task failures are retried (see the module docstring)."""

    #: Total attempts a task may consume (1 = never retry).
    max_attempts: int = 3
    #: Delay before the first retry.
    backoff_seconds: float = 0.1
    #: Multiplier applied per subsequent retry.
    backoff_factor: float = 2.0
    #: Ceiling on any single delay.
    backoff_max_seconds: float = 30.0
    #: Wall-clock budget across *all* attempts of one task, measured from
    #: its first dispatch (``None`` = unbounded).
    deadline_budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RetrySpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.backoff_max_seconds < 0:
            raise RetrySpecError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise RetrySpecError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.deadline_budget_seconds is not None and self.deadline_budget_seconds <= 0:
            raise RetrySpecError("deadline_budget_seconds must be positive")

    def delay_for(self, failed_attempts: int) -> float:
        """Backoff before the retry following the Nth failure (1-based)."""
        delay = self.backoff_seconds * (self.backoff_factor ** max(0, failed_attempts - 1))
        return min(delay, self.backoff_max_seconds)

    def with_overrides(self, overrides: Optional[Dict[str, object]]) -> "RetryPolicy":
        """A copy with the (already-normalised) override fields applied."""
        if not overrides:
            return self
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_seconds": self.backoff_seconds,
            "backoff_factor": self.backoff_factor,
            "backoff_max_seconds": self.backoff_max_seconds,
            "deadline_budget_seconds": self.deadline_budget_seconds,
        }


def normalize_retry_overrides(
    value: Union[None, int, str, Dict[str, object], RetryPolicy],
) -> Optional[Dict[str, object]]:
    """Canonicalise one override layer to ``{field: value}`` (or ``None``).

    Accepts an integer or an integer string (shorthand for
    ``max_attempts``), a spec string
    (``"attempts=3,backoff=0.5,factor=2,max_backoff=30,deadline=60"``), a
    mapping using either the alias or the full field names, or a ready
    :class:`RetryPolicy` (meaning: replace every field).
    """
    if value is None:
        return None
    if isinstance(value, RetryPolicy):
        return value.to_dict()
    if isinstance(value, bool):
        raise RetrySpecError(f"cannot interpret {value!r} as a retry policy")
    if isinstance(value, int):
        return {"max_attempts": value}
    if isinstance(value, str):
        try:
            return {"max_attempts": int(value)}
        except ValueError:
            pass  # a key=value spec
        parsed: Dict[str, object] = {}
        for item in value.split(","):
            item = item.strip()
            if not item:
                continue
            key, separator, raw = item.partition("=")
            if not separator:
                raise RetrySpecError(f"retry option {item!r} is not key=value")
            parsed[key.strip()] = raw.strip()
        value = parsed
    if not isinstance(value, dict):
        raise RetrySpecError(
            f"cannot interpret {type(value).__name__} as a retry policy"
        )
    overrides: Dict[str, object] = {}
    for key, raw in value.items():
        field = _KEY_ALIASES.get(str(key))
        if field is None:
            raise RetrySpecError(
                f"unknown retry option {key!r} (accepted: "
                f"{', '.join(sorted(set(_KEY_ALIASES)))})"
            )
        if raw is None or raw == "" or (isinstance(raw, str) and raw.lower() == "none"):
            overrides[field] = None
            continue
        try:
            overrides[field] = int(raw) if field in _INT_FIELDS else float(raw)
        except (TypeError, ValueError) as error:
            raise RetrySpecError(f"bad retry option {key}={raw!r}") from error
    return overrides


def resolve_retry_policy(*layers) -> RetryPolicy:
    """Fold override layers (weakest first) over the env-seeded default.

    ``None`` layers are skipped.  The ``REPRO_RETRY`` environment variable
    is always the weakest layer; callers pass service config then per-job/
    CLI overrides, in that order.
    """
    policy = RetryPolicy()
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        policy = policy.with_overrides(normalize_retry_overrides(env))
    for layer in layers:
        overrides = normalize_retry_overrides(layer)
        if overrides:
            policy = policy.with_overrides(overrides)
    return policy
