"""Request coalescing and signature-affinity dispatch.

Two scheduling decisions happen *above* the workers, and this module owns
both as plain, synchronously-tested data structures:

* :class:`CoalesceTable` — jobs that are literally the same request (same
  formula signature, same hyper-parameters, same target, same portfolio)
  should not be sampled twice.  The first such job becomes the *primary*;
  equivalent jobs submitted while it is in flight attach as *followers* and
  share its solution pool.  Under a fixed seed the sampler is deterministic,
  so a follower receives bit-for-bit the result it would have computed
  itself — coalescing is purely a throughput win.

* :class:`Dispatcher` — jobs for the same formula should land on a worker
  that already holds the compiled artifact.  The dispatcher remembers which
  workers have seen which formula signatures and routes by warm-affinity
  first, load second (a cold worker is preferred over queueing behind a
  long backlog: :data:`SPILL_THRESHOLD` bounds how much longer the warm
  worker's queue may be before the job spills to the least-loaded cold
  one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.serve.jobs import SamplingJob, config_to_dict


def coalesce_key(job: SamplingJob, signature: str) -> Tuple:
    """The identity under which two jobs are the same request.

    Formula content signature + workload task + full config + target +
    portfolio shape.  The task's canonical form is part of the identity:
    two jobs over the same formula but different projections, weights or
    clause deltas are *different* requests and must not share results.
    Jobs with ``coalesce=False`` never call this.
    """

    def freeze(data: Dict[str, object]) -> Tuple:
        return tuple(
            (key, freeze(value) if isinstance(value, dict) else value)
            for key, value in sorted(data.items())
        )

    return (
        signature,
        job.task.canonical(),
        job.num_solutions,
        freeze(config_to_dict(job.config)),
        tuple(freeze(member) for member in job.portfolio),
    )


class CoalesceTable:
    """In-flight request identities and their follower lists."""

    def __init__(self) -> None:
        self._primaries: Dict[Tuple, str] = {}
        self._followers: Dict[str, List[str]] = {}

    def attach(self, key: Tuple, job_id: str) -> Optional[str]:
        """Register a job under ``key``.

        Returns ``None`` when the job becomes the primary (it must actually
        run), or the primary's job id when it attached as a follower.
        """
        primary = self._primaries.get(key)
        if primary is None:
            self._primaries[key] = job_id
            self._followers[job_id] = []
            return None
        self._followers[primary].append(job_id)
        return primary

    def release(self, key: Tuple, primary_id: str) -> List[str]:
        """Finish a primary: forget the identity, return its followers."""
        if self._primaries.get(key) == primary_id:
            del self._primaries[key]
        return self._followers.pop(primary_id, [])

    def __len__(self) -> int:
        return len(self._primaries)


@dataclass
class _WorkerState:
    outstanding: int = 0
    signatures: Set[str] = field(default_factory=set)
    #: Dead slots (between death and respawn, or abandoned) never receive
    #: work; the supervisor flips this through set_offline/set_online.
    online: bool = True


#: How many more outstanding tasks than the least-loaded worker a warm
#: worker may hold before a task for its formula spills to a cold one.
SPILL_THRESHOLD = 2


class Dispatcher:
    """Pick a worker for each task: warm artifact first, load second."""

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self._workers = [_WorkerState() for _ in range(num_workers)]

    def choose(self, signature: str) -> int:
        """The *online* worker the next task for ``signature`` should go to.

        A worker that already compiled this formula wins unless its backlog
        exceeds the globally least-loaded worker's by more than
        :data:`SPILL_THRESHOLD` tasks — then the work spills (the cold worker
        will recompile once, after which both are warm and the formula's
        traffic parallelises).  Raises :class:`RuntimeError` when every
        slot is offline (the scheduler core checks :attr:`has_online` first).
        """
        candidates = [
            index for index, state in enumerate(self._workers) if state.online
        ]
        if not candidates:
            raise RuntimeError("no online workers to dispatch to")
        least_loaded = min(
            candidates, key=lambda i: (self._workers[i].outstanding, i)
        )
        warm = [
            index for index in candidates
            if signature in self._workers[index].signatures
        ]
        if warm:
            best_warm = min(warm, key=lambda i: (self._workers[i].outstanding, i))
            floor = self._workers[least_loaded].outstanding
            if self._workers[best_warm].outstanding - floor <= SPILL_THRESHOLD:
                return best_warm
        return least_loaded

    def record_dispatch(self, worker: int, signature: str) -> None:
        """Account a task sent to ``worker`` (it will hold the artifact)."""
        state = self._workers[worker]
        state.outstanding += 1
        state.signatures.add(signature)

    def record_done(self, worker: int) -> None:
        """Account a finished task."""
        state = self._workers[worker]
        if state.outstanding > 0:
            state.outstanding -= 1

    def outstanding(self, worker: int) -> int:
        """Tasks currently queued or running on ``worker``."""
        return self._workers[worker].outstanding

    # -- supervision hooks --------------------------------------------------------------
    def set_offline(self, worker: int) -> None:
        """Take a dead slot out of rotation and zero its accounting.

        The process (and its task queue and in-memory artifact cache) is
        gone, so both the backlog and the warm-signature set are reset; a
        respawned replacement re-primes its cache through the persistent
        store, not through memory affinity.
        """
        state = self._workers[worker]
        state.online = False
        state.outstanding = 0
        state.signatures.clear()

    def set_online(self, worker: int) -> None:
        """Return a (respawned) slot to the dispatch rotation."""
        self._workers[worker].online = True

    @property
    def has_online(self) -> bool:
        """Whether any slot can receive work at all."""
        return any(state.online for state in self._workers)
