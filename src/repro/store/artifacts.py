"""Persisting and loading :class:`~repro.serve.cache.SamplingArtifact`.

The store keeps two entry kinds under one formula signature (their schemas
are in :mod:`repro.store.schema`):

* ``round`` — the hot entry: the transform's
  :class:`~repro.core.transform.RoundPlan` (row maps plus the flat learn
  and fill programs) and the formula's
  :class:`~repro.cnf.kernel.CNFEvalPlan`, as JSON fields plus named arrays
  in the container's pickle-free layout.  It holds no
  ``Circuit``, ``Expr`` or ``Clause``: exactly what a sampling round
  executes, as zero-copy views into the read buffer, validated before use.
* ``transform`` — the formula together with its
  :class:`~repro.core.transform.TransformResult` (recovered circuit,
  definitions, constraints, replay); the one kind that is still pickled.

A hit decodes only ``round``, and unpickles nothing.  The ``transform``
entry is read and checksummed on every hit (so a corrupt one is still a
miss) and its verified bytes ride along with the artifact as a
:class:`PendingTransform`; they are unpickled — under a ``store.decode``
span, counted in the store's ``transform_decodes`` — only when something
other than a round needs the formula or the transform, such as an
incremental derivation or the pipeline's summary.

The ``transform`` entry is written *last*: its presence marks the signature
complete, so a crash between writes can only leave behind an orphaned
``round`` entry, which the next build keeps (entries are content-addressed,
so it equals the round that build would write).  The converse — a
``transform`` whose ``round`` was pruned or quarantined — is repaired on the
next hit: the transform is decoded, the round rebuilt from it and written
back once, so later hits are round-only again.

:func:`fetch_or_build_artifact` is the store-aware miss path the serve cache
and pipeline call: store load → single-flight build lease → persist, with
every failure mode degrading to a plain local build.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.store.format import StoreFormatError, VerifiedEntry
from repro.store.schema import KIND_ROUND, KIND_TRANSFORM, encode_round
from repro.store.store import ArtifactStore
from repro import obs

_LOAD_SECONDS = obs.counter(
    "repro_store_load_seconds_total",
    "Wall-clock seconds spent materialising artifacts from the store.",
)

class PendingTransform:
    """A verified ``transform`` entry, decoded on first use."""

    def __init__(self, store: ArtifactStore, entry: VerifiedEntry) -> None:
        self._store = store
        self._entry = entry

    @property
    def nbytes(self) -> int:
        """Encoded bytes kept in memory until the decode."""
        return self._entry.nbytes

    def decode(self):
        """``(formula, transform)`` from the verified bytes."""
        with obs.span("store.decode") as dspan:
            dspan.set("signature", self._entry.signature[:12])
            payload = self._store.decode(self._entry)
        try:
            return payload["formula"], payload["transform"]
        except (TypeError, KeyError) as error:
            raise StoreFormatError(f"not a transform entry: {error}") from error


def persist_artifact(store: ArtifactStore, artifact) -> bool:
    """Write one built :class:`SamplingArtifact` into the store.

    Returns whether the completion marker (the ``transform`` entry) landed.
    Entries already on disk are left untouched — they are content-addressed,
    so an existing entry is byte-equivalent to anything this call would
    write — but a missing ``round`` is written even when ``transform`` exists.
    """
    signature = artifact.signature
    with obs.span("store.persist") as pspan:
        pspan.set("signature", signature[:12])
        if not store.contains(KIND_ROUND, signature):
            store.put(KIND_ROUND, signature, encode_round(artifact.round, artifact.plan))
        if store.contains(KIND_TRANSFORM, signature):
            return True
        return store.put(
            KIND_TRANSFORM,
            signature,
            {"formula": artifact.formula, "transform": artifact.transform},
        )


def load_sampling_artifact(store: ArtifactStore, signature: str):
    """Materialise the artifact for ``signature`` from the store, or ``None``.

    A hit decodes and validates the ``round`` entry and verifies, but does
    not decode, the ``transform`` entry (see the module docstring); both
    entries' recency is refreshed.  A missing or corrupt ``transform`` makes
    the load a miss.  A missing or invalid ``round`` (quarantined by the
    store) is rebuilt from the decoded transform and written back.
    """
    from repro.serve.cache import SamplingArtifact

    start = time.perf_counter()
    with obs.span("store.load") as lspan:
        lspan.set("signature", signature[:12])
        entry = store.read(KIND_TRANSFORM, signature)
        if entry is None:
            lspan.set("outcome", "miss")
            return None
        pending = PendingTransform(store, entry)
        hot = store.get(KIND_ROUND, signature)
        objects = None
        if hot is not None:
            round_plan, plan = hot
        else:
            try:
                formula, transform = pending.decode()
            except StoreFormatError:
                lspan.set("outcome", "miss")
                return None
            plan = formula.evaluation_plan()
            round_plan = transform.round_plan
            objects, pending = (formula, transform), None
            store.put(KIND_ROUND, signature, encode_round(round_plan, plan))
            lspan.set("round", "rebuilt")

        load_seconds = time.perf_counter() - start
        lspan.set("outcome", "hit")
        _LOAD_SECONDS.inc(load_seconds)
        return SamplingArtifact(
            signature=signature,
            round=round_plan,
            plan=plan,
            source="store",
            load_seconds=load_seconds,
            objects=objects,
            pending=pending,
        )


def fetch_or_build_artifact(
    store: Optional[ArtifactStore],
    signature: str,
    builder: Callable[[], object],
) -> Tuple[object, str]:
    """Resolve an artifact through the store with single-flight cold builds.

    Returns ``(artifact, source)`` where ``source`` is ``"store"`` or
    ``"built"``.  The store is strictly an accelerator: a ``None`` store, a
    failed load, a lost build lease whose holder dies, or a persist failure
    all fall through to ``builder()`` — the caller always gets an artifact.
    """
    if store is None:
        return builder(), "built"
    artifact = load_sampling_artifact(store, signature)
    if artifact is not None:
        return artifact, "store"
    lease = store.lease(signature)
    if lease.acquire():
        try:
            # Another process may have published between our miss and the
            # claim; re-checking here keeps the build truly single-flight.
            artifact = load_sampling_artifact(store, signature)
            if artifact is not None:
                return artifact, "store"
            artifact = builder()
            persist_artifact(store, artifact)
            return artifact, "built"
        finally:
            lease.release()
    artifact = lease.wait(lambda: load_sampling_artifact(store, signature))
    if artifact is not None:
        return artifact, "store"
    return builder(), "built"
