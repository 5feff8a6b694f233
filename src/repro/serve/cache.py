"""Formula-keyed artifact cache: a hot formula never recompiles.

One sampling request needs three expensive compiled artifacts, all derived
purely from the formula:

* the **transformation** (Algorithm 1: CNF -> recovered circuit), by far the
  dominant cost — roughly 10x the sampling time itself on the ISCAS-family
  instances;
* the **compiled engine program** of the constrained cone
  (:func:`repro.engine.compiler.compiled_program_for`, memoised on the
  recovered circuit);
* the **CNF evaluation plan** used for candidate validation
  (:meth:`CNF.evaluation_plan`, memoised on the formula object).

:class:`ArtifactCache` bundles the three into a :class:`SamplingArtifact`
keyed by the formula's content signature
(:func:`repro.core.signatures.formula_signature`) and keeps them in a
:class:`~repro.utils.weakcache.BoundedLRUCache` — bounded both by entry
count and by total bytes, with the byte cost read straight off the compiled
objects' ``nbytes`` handles (:attr:`CompiledProgram.nbytes`,
:attr:`CNFEvalPlan.nbytes`).  Every service worker owns one instance, so a
formula that stays hot on a worker is transformed and compiled exactly once
for the worker's lifetime, however many jobs reference it.

An optional second tier — a persistent
:class:`~repro.store.store.ArtifactStore` — sits under the memory cache:
``get_or_build`` resolves memory → store → build, persists after a cold
build, and coordinates concurrent cold starts on one signature through the
store's single-flight build lease, so the first process to ever compile a
formula warms every other process sharing the store directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.cnf.kernel import CNFEvalPlan
from repro.core.signatures import formula_signature
from repro.core.transform import TransformResult, retransform, transform_cnf
from repro.engine.compiler import cached_programs
from repro.store.artifacts import fetch_or_build_artifact
from repro.store.store import ArtifactStore
from repro.utils.weakcache import BoundedLRUCache
from repro import obs

#: Default bounds: a handful of hot formulas, capped at a quarter gigabyte.
DEFAULT_MAX_ENTRIES = 8
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Registered form of :meth:`ArtifactCache.stats` tier activity — memory-tier
#: hits/misses/evictions and how misses were resolved (store load, cold
#: build, incremental derivation).  One registry feeds ``repro-sat cache
#: stats`` and the serve exports, so the two can never drift.
_CACHE_OPS = obs.counter(
    "repro_cache_ops_total",
    "In-memory artifact-cache operations by tier and outcome.",
    labels=("op",),
)


@dataclass
class SamplingArtifact:
    """Everything compiled from one formula, ready for repeated sampling."""

    #: Content signature the artifact is keyed by.
    signature: str
    #: The formula object solutions are validated against.  Samplers must be
    #: built on *this* object (not the caller's equal copy) so the memoised
    #: evaluation plan is shared.
    formula: CNF
    #: The recovered multi-level function (Algorithm 1 output).
    transform: TransformResult
    #: The memoised CNF evaluation plan (also reachable via the formula).
    plan: CNFEvalPlan
    #: Wall-clock seconds the build took (transform + compiles).
    build_seconds: float
    #: Wall-clock seconds of the transform alone — the dominant cold-start
    #: stage, surfaced per job so cold-path latency is observable end to end.
    transform_seconds: float = 0.0
    #: True when this artifact was *derived* from a cached parent via
    #: :func:`repro.core.transform.retransform` instead of a full cold
    #: transform (the incremental-job fast path).
    incremental: bool = False
    #: Signature of the parent artifact an incremental build derived from.
    parent_signature: Optional[str] = None
    #: How this artifact entered the process: ``"built"`` (compiled here) or
    #: ``"store"`` (deserialised from the persistent artifact store).
    source: str = "built"
    #: Wall-clock seconds a store load took (0.0 for built artifacts).
    load_seconds: float = 0.0

    @property
    def nbytes(self) -> int:
        """Byte cost charged to the cache: plan + every memoised program."""
        total = self.plan.nbytes
        for program in cached_programs(self.transform.circuit):
            total += program.nbytes
        return total


def build_artifact(formula: CNF, signature: Optional[str] = None) -> SamplingArtifact:
    """Compile every artifact for ``formula`` (the cache-miss path).

    The transform's round plan (the sampler skeleton) is built and its
    constrained cone's engine program compiled eagerly, so constructing a
    sampler on the artifact later is a pure cache hit.
    """
    from repro import faults

    if faults.fire("build") is not None:
        # Deterministic chaos hook (repro.faults): a transient build
        # failure the service's retry policy must absorb.
        raise faults.InjectedFault("injected artifact build fault")
    with obs.span("artifact.build") as bspan:
        start = time.perf_counter()
        signature = signature or formula_signature(formula)
        bspan.set("signature", signature[:12])
        transform = transform_cnf(formula)
        plan = formula.evaluation_plan()
        if transform.constraints:
            transform.round_plan.model.program  # compile into the circuit's memo
        return SamplingArtifact(
            signature=signature,
            formula=formula,
            transform=transform,
            plan=plan,
            build_seconds=time.perf_counter() - start,
            transform_seconds=transform.stats.seconds,
        )


def build_incremental_artifact(
    parent: SamplingArtifact,
    delta: ClauseDelta,
    signature: Optional[str] = None,
) -> SamplingArtifact:
    """Derive the artifact for ``parent``'s formula with ``delta`` applied.

    The expensive stage — the transform — runs as an incremental
    :func:`~repro.core.transform.retransform` replay from the parent's
    recorded stream checkpoints instead of a cold Algorithm 1 pass, and the
    parent's compiled CNF evaluation plan is spliced rather than recompiled
    when the delta is append-only (:meth:`CNF.with_delta`).  The result is
    a fully independent artifact: equal to a cold build of the effective
    formula (the ``tests/incremental`` equivalence suite pins this), cached
    and evicted on its own.
    """
    with obs.span("artifact.build_incremental") as bspan:
        start = time.perf_counter()
        effective = parent.formula.with_delta(delta)
        signature = signature or formula_signature(effective)
        bspan.set("signature", signature[:12])
        transform = retransform(parent.transform, delta)
        plan = effective.evaluation_plan()
        if transform.constraints:
            transform.round_plan.model.program  # compile into the circuit's memo
        return SamplingArtifact(
            signature=signature,
            formula=effective,
            transform=transform,
            plan=plan,
            build_seconds=time.perf_counter() - start,
            transform_seconds=transform.stats.seconds,
            incremental=True,
            parent_signature=parent.signature,
        )


class ArtifactCache:
    """LRU + byte-bounded cache of :class:`SamplingArtifact` by signature.

    With a ``store``, the cache becomes the top tier of a two-level
    hierarchy: misses consult the persistent store (milliseconds) before
    compiling (seconds), cold builds are persisted for every other process
    sharing the store, and concurrent cold builds of one signature are
    single-flighted through the store's build lease.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self._cache = BoundedLRUCache(
            max_entries=max_entries,
            max_bytes=max_bytes,
            on_evict=self._release,
        )
        self._store = store

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The persistent second tier, when one is attached."""
        return self._store

    @staticmethod
    def _release(_key, artifact) -> None:
        # Drop the memoised state so an evicted artifact frees its compiled
        # bytes even if a caller still holds the bare formula/circuit.
        _CACHE_OPS.inc(1.0, "eviction")
        artifact.formula.clear_evaluation_plan()
        artifact.transform.circuit.engine_cache().clear()

    def _cache_get(self, signature: str) -> Optional[SamplingArtifact]:
        """Memory-tier lookup with hit/miss accounting (the one code path
        every public lookup goes through, so the counters cannot drift)."""
        artifact = self._cache.get(signature)
        _CACHE_OPS.inc(1.0, "memory_hit" if artifact is not None else "memory_miss")
        return artifact

    def get(self, signature: str) -> Optional[SamplingArtifact]:
        """The cached artifact for a signature, refreshing recency."""
        return self._cache_get(signature)

    def get_or_build(
        self,
        formula: Optional[CNF] = None,
        signature: Optional[str] = None,
        loader: Optional[Callable[[], CNF]] = None,
    ) -> Tuple[SamplingArtifact, bool]:
        """Return ``(artifact, was_built)``, building and admitting on miss.

        The formula may be given directly, or — when the signature is known
        up front, as it is for service tasks — as a ``loader`` callable that
        is invoked *only on a miss*: a cache hit then costs no DIMACS
        parse/materialisation at all, which matters on exactly the warm
        path the cache exists for.
        """
        if formula is None and loader is None:
            raise ValueError("either a formula or a loader is required")
        if signature is None:
            if formula is None:
                formula = loader()
            signature = formula_signature(formula)
        artifact = self._cache_get(signature)
        if artifact is not None:
            return artifact, False
        if self._store is None:
            if formula is None:
                formula = loader()
            artifact = build_artifact(formula, signature)
        else:
            def _build() -> SamplingArtifact:
                built_from = formula if formula is not None else loader()
                return build_artifact(built_from, signature)

            artifact, source = fetch_or_build_artifact(self._store, signature, _build)
            if source == "store":
                _CACHE_OPS.inc(1.0, "store_hit")
                self._cache.put(signature, artifact, artifact.nbytes)
                return artifact, False
        _CACHE_OPS.inc(1.0, "built")
        self._cache.put(signature, artifact, artifact.nbytes)
        return artifact, True

    def get_or_build_task(
        self,
        task,
        signature: str,
        base_signature: str,
        loader: Callable[[], CNF],
    ) -> Tuple[SamplingArtifact, bool, bool]:
        """Resolve the artifact for a workload task over a base formula.

        ``signature`` keys the *effective* (post-delta) formula —
        content-addressed, so projected/weighted tasks over one formula
        share its artifact, and two different deltas reaching the same
        formula share one too.  ``base_signature`` keys the task's base
        formula; when the effective artifact is missing but the base one is
        warm (and carries a transform replay), the build runs as an
        incremental derivation (:func:`build_incremental_artifact`) instead
        of a cold transform.  Returns ``(artifact, was_built,
        was_derived_incrementally)``.
        """
        artifact = self._cache_get(signature)
        if artifact is not None:
            return artifact, False, False
        delta = None if task is None else task.delta

        def _build() -> SamplingArtifact:
            # Prefer deriving from a warm parent (incremental replay) over a
            # cold transform of the effective formula.
            if delta is not None and not delta.is_empty:
                parent = self._cache.get(base_signature)
                if parent is not None and parent.transform.replay is not None:
                    return build_incremental_artifact(parent, delta, signature)
                formula = loader().with_delta(delta)
            else:
                formula = loader()
            return build_artifact(formula, signature)

        if self._store is None:
            artifact = _build()
            derived = artifact.incremental
        else:
            artifact, source = fetch_or_build_artifact(self._store, signature, _build)
            derived = artifact.incremental and source == "built"
            if source == "store":
                _CACHE_OPS.inc(1.0, "store_hit")
                self._cache.put(signature, artifact, artifact.nbytes)
                return artifact, False, False
        _CACHE_OPS.inc(1.0, "incremental" if derived else "built")
        self._cache.put(signature, artifact, artifact.nbytes)
        return artifact, True, derived

    def signatures(self) -> Tuple[str, ...]:
        """Cached signatures, least- to most-recently used."""
        return tuple(self._cache.keys())

    def clear(self) -> None:
        """Evict everything (releasing the artifacts' memoised state)."""
        self._cache.clear()

    def stats(self) -> Dict[str, int]:
        """Entry/byte/hit/miss/eviction counters of the underlying LRU.

        With a persistent store attached, its counters are merged in under
        ``store_*`` keys (hits/misses/writes/corrupt/lease activity of *this
        process's* handle — cheap, no directory walk).

        These are this cache's own counters (what
        ``SamplingService.cache_stats()`` reports); the process-wide form is
        ``repro_cache_ops_total``/``repro_store_ops_total`` in
        :mod:`repro.obs` — see :func:`repro.obs.artifact_counters`.
        """
        stats = self._cache.stats()
        if self._store is not None:
            for key, value in self._store.counters().items():
                stats[f"store_{key}"] = value
        return stats

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, signature: str) -> bool:
        return signature in self._cache
