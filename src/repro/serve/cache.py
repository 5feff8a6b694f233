"""Formula-keyed artifact cache: a hot formula never recompiles.

One sampling request needs expensive compiled artifacts, all derived purely
from the formula:

* the **transformation** (Algorithm 1: CNF -> recovered circuit), by far the
  dominant cost — roughly 10x the sampling time itself on the ISCAS-family
  instances;
* its **round plan** (:attr:`TransformResult.round_plan`): the compiled
  engine programs a round runs — the constrained cone it learns on and the
  defined variables it fills — plus the row maps;
* the **CNF evaluation plan** used for candidate validation
  (:meth:`CNF.evaluation_plan`, memoised on the formula object).

:class:`ArtifactCache` bundles them into a :class:`SamplingArtifact` keyed by
the formula's content signature
(:func:`repro.core.signatures.formula_signature`) and keeps them in a
:class:`~repro.utils.weakcache.BoundedLRUCache` — bounded both by entry
count and by total bytes, with the byte cost read straight off the compiled
objects' ``nbytes`` handles (:attr:`CompiledProgram.nbytes`,
:attr:`CNFEvalPlan.nbytes`) plus any still-encoded store bytes.  Every
service worker owns one instance, so a formula that stays hot on a worker is
transformed and compiled exactly once for the worker's lifetime, however
many jobs reference it.

An optional second tier — a persistent
:class:`~repro.store.store.ArtifactStore` — sits under the memory cache:
``get_or_build`` resolves memory → store → build, persists after a cold
build, and coordinates concurrent cold starts on one signature through the
store's single-flight build lease, so the first process to ever compile a
formula warms every other process sharing the store directory.  A store hit
carries only the round plan and the CNF plan decoded; its formula and
transform stay encoded until first accessed, and evicting it never decodes
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cnf.delta import ClauseDelta
from repro.cnf.formula import CNF
from repro.cnf.kernel import CNFEvalPlan
from repro.core.signatures import formula_signature
from repro.core.transform import RoundPlan, TransformResult, retransform, transform_cnf
from repro.store.artifacts import PendingTransform, fetch_or_build_artifact
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
    """Everything compiled from one formula, ready for repeated sampling.

    A sampling round reads only :attr:`round` and :attr:`plan`.  The formula
    and its :class:`TransformResult` are needed only off that path (summaries,
    incremental derivation, the pipeline's result): a built artifact holds
    them, a store-loaded one holds its verified ``transform`` entry and
    decodes it on the first access to :attr:`formula` or :attr:`transform`.
    """

    #: Content signature the artifact is keyed by.
    signature: str
    #: What a sampling round executes (the transform's compiled round plan).
    round: RoundPlan
    #: The formula's CNF evaluation plan, which validates every candidate.
    plan: CNFEvalPlan
    #: Wall-clock seconds the build took (transform + compiles).
    build_seconds: float = 0.0
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
    #: ``(formula, transform)``, or ``None`` until :attr:`pending` is decoded.
    objects: Optional[Tuple[CNF, TransformResult]] = field(default=None, repr=False)
    #: The store's verified, still-encoded ``transform`` entry (store hits only).
    pending: Optional[PendingTransform] = field(default=None, repr=False)

    @property
    def formula(self) -> CNF:
        """The formula object solutions are validated against.

        Samplers built from it share :attr:`plan` as its memoised
        evaluation plan.
        """
        return self._decoded()[0]

    @property
    def transform(self) -> TransformResult:
        """The recovered multi-level function (Algorithm 1 output)."""
        return self._decoded()[1]

    def _decoded(self) -> Tuple[CNF, TransformResult]:
        if self.objects is None:
            formula, transform = self.pending.decode()
            formula.install_evaluation_plan(self.plan)
            transform.adopt_programs(self.round)
            self.objects = (formula, transform)
            self.pending = None
        return self.objects

    @property
    def nbytes(self) -> int:
        """Byte cost charged to the cache: the plan, the round's programs
        and any still-encoded store bytes the artifact keeps."""
        total = self.plan.nbytes
        for program in (self.round.learn, self.round.fill):
            if program is not None:
                total += program.nbytes
        if self.pending is not None:
            total += self.pending.nbytes
        return total

    def release(self) -> None:
        """Drop the memoised state an evicted artifact keeps alive.

        An artifact whose ``transform`` entry is still encoded has no such
        state, and stays undecoded.
        """
        if self.objects is not None:
            formula, transform = self.objects
            formula.clear_evaluation_plan()
            transform.circuit.engine_cache().clear()


def _compiled_artifact(
    signature: str, formula: CNF, transform: TransformResult, start: float, **fields
) -> SamplingArtifact:
    """Compile the round plan and the CNF plan, and wrap them as an artifact."""
    plan = formula.evaluation_plan()
    round_plan = transform.round_plan
    return SamplingArtifact(
        signature=signature,
        round=round_plan,
        plan=plan,
        build_seconds=time.perf_counter() - start,
        transform_seconds=transform.stats.seconds,
        objects=(formula, transform),
        **fields,
    )


def build_artifact(formula: CNF, signature: Optional[str] = None) -> SamplingArtifact:
    """Compile every artifact for ``formula`` (the cache-miss path).

    The transform's round plan (its learn and fill programs) and the CNF
    plan are compiled eagerly, so a sampler on the artifact compiles nothing.
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
        return _compiled_artifact(signature, formula, transform_cnf(formula), start)


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
    and evicted on its own.  A store-loaded parent decodes its transform
    here.
    """
    with obs.span("artifact.build_incremental") as bspan:
        start = time.perf_counter()
        effective = parent.formula.with_delta(delta)
        signature = signature or formula_signature(effective)
        bspan.set("signature", signature[:12])
        return _compiled_artifact(
            signature,
            effective,
            retransform(parent.transform, delta),
            start,
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
        artifact.release()

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
            formula = formula if formula is not None else loader()
            signature = formula_signature(formula)
        artifact, was_built, _ = self.get_or_build_task(
            None, signature, signature, loader if formula is None else lambda: formula
        )
        return artifact, was_built

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
