"""Persisting and loading :class:`~repro.serve.cache.SamplingArtifact`.

The store keeps the three expensive compiled artifact kinds under one
formula signature:

* ``transform`` — the formula together with its
  :class:`~repro.core.transform.TransformResult` (recovered circuit,
  definitions, constraints, replay);
* ``plan`` — the :class:`~repro.cnf.kernel.CNFEvalPlan` used for candidate
  validation;
* ``program`` — every :class:`~repro.engine.program.CompiledProgram`
  memoised on the recovered circuit, with its memo key.

The ``transform`` entry is written *last*: its presence marks the signature
complete, so a crash between writes can only ever leave behind orphaned
``plan``/``program`` entries (harmless: :func:`load_sampling_artifact`
recompiles whichever auxiliary piece is missing from the loaded formula and
circuit — both recompilations are cheap next to the transform itself).

:func:`fetch_or_build_artifact` is the store-aware miss path the serve cache
and pipeline call: store load → single-flight build lease → persist, with
every failure mode degrading to a plain local build.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.store.store import ArtifactStore
from repro import obs

_LOAD_SECONDS = obs.counter(
    "repro_store_load_seconds_total",
    "Wall-clock seconds spent materialising artifacts from the store.",
)

#: Entry kinds (directory names under ``objects/``).
KIND_TRANSFORM = "transform"
KIND_PLAN = "plan"
KIND_PROGRAM = "program"

ALL_KINDS = (KIND_TRANSFORM, KIND_PLAN, KIND_PROGRAM)


def persist_artifact(store: ArtifactStore, artifact) -> bool:
    """Write one built :class:`SamplingArtifact` into the store.

    Returns whether the completion marker (the ``transform`` entry) landed.
    Already-persisted signatures are left untouched — entries are
    content-addressed, so an existing complete entry is byte-equivalent to
    anything this call would write.
    """
    signature = artifact.signature
    if store.contains(KIND_TRANSFORM, signature):
        return True
    with obs.span("store.persist") as pspan:
        pspan.set("signature", signature[:12])
        store.put(KIND_PLAN, signature, artifact.plan)
        programs = list(artifact.transform.circuit.engine_cache().items())
        if programs:
            store.put(KIND_PROGRAM, signature, programs)
        return store.put(
            KIND_TRANSFORM,
            signature,
            {"formula": artifact.formula, "transform": artifact.transform},
        )


def load_sampling_artifact(store: ArtifactStore, signature: str):
    """Materialise the artifact for ``signature`` from the store, or ``None``.

    The loaded plan is installed as the formula's memo and every loaded
    program is adopted into the circuit's engine cache, so the returned
    artifact is indistinguishable from a freshly built one to the sampler:
    model construction and candidate validation are pure cache hits.  A
    missing/corrupt auxiliary entry is recompiled from the loaded formula or
    circuit; a missing/corrupt ``transform`` entry makes the whole load a
    miss.
    """
    from repro.engine.compiler import adopt_program
    from repro.serve.cache import SamplingArtifact

    start = time.perf_counter()
    with obs.span("store.load") as lspan:
        lspan.set("signature", signature[:12])
        payload = store.get(KIND_TRANSFORM, signature)
        if payload is None:
            lspan.set("outcome", "miss")
            return None
        try:
            formula = payload["formula"]
            transform = payload["transform"]
        except (TypeError, KeyError):
            lspan.set("outcome", "miss")
            return None

        plan = store.get(KIND_PLAN, signature)
        if plan is not None:
            try:
                formula.install_evaluation_plan(plan)
            except ValueError:
                plan = None  # mismatched orphan: recompile below
        if plan is None:
            plan = formula.evaluation_plan()

        programs = store.get(KIND_PROGRAM, signature)
        if programs is not None:
            try:
                for key, program in programs:
                    adopt_program(transform.circuit, tuple(key), program)
            except (TypeError, ValueError):
                programs = None
        if programs is None and transform.constraints:
            # Recompile through the same route build_artifact takes so the
            # memo key matches the sampler's own model.
            transform.round_plan.model.program

        load_seconds = time.perf_counter() - start
        lspan.set("outcome", "hit")
        _LOAD_SECONDS.inc(load_seconds)
        return SamplingArtifact(
            signature=signature,
            formula=formula,
            transform=transform,
            plan=plan,
            build_seconds=0.0,
            transform_seconds=transform.stats.seconds,
            incremental=False,
            parent_signature=None,
            source="store",
            load_seconds=load_seconds,
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
