"""Worker-slot supervision: bounded, backed-off restarts of dead workers.

:class:`WorkerSupervisor` is the *policy* half of pool fault tolerance —
pure bookkeeping over monotonic timestamps, no processes, fully
unit-testable.  The scheduler core (:mod:`repro.serve.core`) feeds it worker
deaths and asks which slots are due a respawn; the supervisor answers with
exponential per-slot backoff (a slot that keeps crashing waits longer each
time, resetting once a task completes on it) and a restart budget per
sliding window (a slot that died more than :data:`MAX_RESTARTS` times
inside :data:`WINDOW_SECONDS` is abandoned — whatever keeps killing it
would keep killing replacements, and the rest of the pool is better off
without the churn).  The bounds are module constants: one policy serves
every pool.

The core requeues a dead slot's tasks and emits the respawn; the
service's pool driver starts the process, whose cache re-primes through the
persistent store.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

#: Deaths tolerated per slot inside the sliding window; one more and the
#: slot is abandoned (the pool keeps running degraded).
MAX_RESTARTS = 5
#: Length of the sliding death-counting window.
WINDOW_SECONDS = 60.0
#: Delay before the first respawn of a slot.
BACKOFF_SECONDS = 0.2
#: Multiplier per *consecutive* crash (reset by a completed task).
BACKOFF_FACTOR = 2.0
#: Ceiling on any single respawn delay.
BACKOFF_MAX_SECONDS = 10.0


def restart_delay(consecutive_deaths: int) -> float:
    """Respawn delay after the Nth consecutive death (1-based)."""
    delay = BACKOFF_SECONDS * BACKOFF_FACTOR ** max(0, consecutive_deaths - 1)
    return min(delay, BACKOFF_MAX_SECONDS)


class WorkerSupervisor:
    """Per-slot restart accounting (see the module docstring).

    All timestamps are caller-provided monotonic seconds, which keeps every
    decision deterministic under test.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self._deaths: List[Deque[float]] = [deque() for _ in range(num_workers)]
        self._consecutive: List[int] = [0] * num_workers
        self._incarnations: List[int] = [0] * num_workers
        self._pending: Dict[int, float] = {}
        self._failed: set = set()

    # -- event intake -------------------------------------------------------------------
    def record_death(self, slot: int, now: float) -> Optional[float]:
        """Account one death of ``slot``; returns the respawn time or ``None``.

        ``None`` means the slot exhausted its restart budget and is
        abandoned (:meth:`is_failed` turns true; no respawn will be due).
        """
        window = self._deaths[slot]
        window.append(now)
        while window and now - window[0] > WINDOW_SECONDS:
            window.popleft()
        if len(window) > MAX_RESTARTS:
            self._failed.add(slot)
            self._pending.pop(slot, None)
            return None
        self._consecutive[slot] += 1
        restart_at = now + restart_delay(self._consecutive[slot])
        self._pending[slot] = restart_at
        return restart_at

    def record_success(self, slot: int) -> None:
        """A task completed on ``slot``: its crash streak is over."""
        self._consecutive[slot] = 0

    def record_respawn(self, slot: int) -> int:
        """The slot was respawned; returns the replacement's incarnation."""
        self._pending.pop(slot, None)
        self._incarnations[slot] += 1
        return self._incarnations[slot]

    # -- queries ------------------------------------------------------------------------
    def due(self, now: float) -> List[int]:
        """Slots whose respawn time has arrived, in slot order."""
        return sorted(slot for slot, at in self._pending.items() if at <= now)

    def next_deadline(self) -> Optional[float]:
        """The earliest pending respawn time (``None`` when nothing pends)."""
        return min(self._pending.values()) if self._pending else None

    def any_pending(self) -> bool:
        """Whether any slot is scheduled for a respawn."""
        return bool(self._pending)

    def is_failed(self, slot: int) -> bool:
        """Whether ``slot`` exhausted its restart budget and is abandoned."""
        return slot in self._failed

    def incarnation(self, slot: int) -> int:
        """The slot's current incarnation (0 = the original process)."""
        return self._incarnations[slot]
