"""The service-wide retry policy: how many attempts, how spaced.

A :class:`RetryPolicy` governs what the service does when a task *fails* —
its worker died mid-task, or the task raised (e.g. a transient artifact
build error).  Failed attempts are re-dispatched with exponential backoff
until the attempt budget runs out; a task whose failures kept *killing
workers* is then quarantined as ``poisoned`` (the decision is
:meth:`repro.serve.core.SchedulerCore._fail`, the same for inline and
pooled jobs) so one pathological formula cannot grind the pool through its
restart budget.  Inline, a retry runs at once, without its backoff.

There is one policy per service: ``SamplingService(retry=RetryPolicy(...))``,
or ``repro-sat serve --retry SPEC`` (parsed by :func:`parse_retry_spec`).
A job carries none of its own, because retry never changes *results*: a
replayed attempt samples with the same seed and the solution sets dedup
exactly, so a job that succeeds after a retry is bitwise identical to one
that never failed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Multiplier applied to the delay per subsequent retry.
BACKOFF_FACTOR = 2.0

#: Ceiling on any single retry delay (seconds).
BACKOFF_MAX_SECONDS = 30.0

#: ``--retry`` spec keys -> :class:`RetryPolicy` field names.
_SPEC_KEYS = {"attempts": "max_attempts", "backoff": "backoff_seconds"}


class RetrySpecError(ValueError):
    """A retry spec (the ``--retry`` flag) is malformed."""


@dataclass(frozen=True)
class RetryPolicy:
    """How task failures are retried (see the module docstring)."""

    #: Total attempts a task may consume (1 = never retry).
    max_attempts: int = 3
    #: Delay before the first retry; each later one doubles it, up to
    #: :data:`BACKOFF_MAX_SECONDS`.
    backoff_seconds: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RetrySpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise RetrySpecError("backoff delays must be non-negative")

    def delay_for(self, failed_attempts: int) -> float:
        """Backoff before the retry following the Nth failure (1-based)."""
        delay = self.backoff_seconds * (BACKOFF_FACTOR ** max(0, failed_attempts - 1))
        return min(delay, BACKOFF_MAX_SECONDS)


def parse_retry_spec(spec: str) -> RetryPolicy:
    """Parse a ``--retry`` spec: ``"N"`` or ``"attempts=N,backoff=S"``.

    A bare integer means ``max_attempts``; a key the spec omits keeps its
    :class:`RetryPolicy` default.  Anything else is a
    :class:`RetrySpecError` naming the offending part.
    """
    if not isinstance(spec, str):
        raise RetrySpecError(f"cannot interpret {spec!r} as a retry spec")
    try:
        attempts = int(spec)
    except ValueError:
        pass  # a key=value spec
    else:
        return RetryPolicy(max_attempts=attempts)
    fields = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, separator, raw = item.partition("=")
        key = key.strip()
        if not separator:
            raise RetrySpecError(f"retry option {item!r} is not key=value")
        if key not in _SPEC_KEYS:
            raise RetrySpecError(
                f"unknown retry option {key!r} (accepted: {', '.join(_SPEC_KEYS)})"
            )
        field = _SPEC_KEYS[key]
        try:
            fields[field] = int(raw) if field == "max_attempts" else float(raw)
        except ValueError as error:
            raise RetrySpecError(f"bad retry option {key}={raw.strip()!r}") from error
    return RetryPolicy(**fields)
