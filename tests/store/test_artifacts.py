"""Artifact persist/load: bitwise equivalence and every degraded path."""

from __future__ import annotations

import time

import numpy as np
import pytest

from tests.corpus.generators import planted_ksat
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.task import SamplingTask
from repro.serve.cache import build_artifact, build_incremental_artifact
from repro.store import (
    KIND_ROUND,
    KIND_TRANSFORM,
    ArtifactStore,
    fetch_or_build_artifact,
    load_sampling_artifact,
    persist_artifact,
    verify_entry,
)
from repro.store.format import FlatPayload, StoreFormatError


def _solutions(artifact, seed=0):
    config = SamplerConfig.paper_defaults(batch_size=64, seed=seed, max_rounds=6)
    sampler = GradientSATSampler(
        artifact.formula, transform=artifact.transform, config=config
    )
    return sampler.sample(num_solutions=20).solutions.to_matrix()


def _round_solutions(artifact, seed=0):
    config = SamplerConfig.paper_defaults(batch_size=64, seed=seed, max_rounds=6)
    sampler = GradientSATSampler(artifact, config=config)
    return sampler.sample(num_solutions=20).solutions.to_matrix()


class TestRoundTrip:
    def test_both_kinds_are_written(self, store, fig1_artifact):
        assert persist_artifact(store, fig1_artifact)
        signature = fig1_artifact.signature
        assert store.contains(KIND_TRANSFORM, signature)
        assert store.contains(KIND_ROUND, signature)
        assert {entry.kind for entry in store.entries()} == {KIND_ROUND, KIND_TRANSFORM}

    def test_round_entry_holds_no_circuit_expr_or_clause(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        signature = fig1_artifact.signature
        # Both entries are JSON fields plus named plain-dtype arrays; the
        # round's fields and arrays name no formula, circuit or expression.
        for kind in (KIND_ROUND, KIND_TRANSFORM):
            data = bytearray(store.object_path(kind, signature).read_bytes())
            flat = verify_entry(data, kind=kind).decode()
            assert isinstance(flat, FlatPayload)
            assert {array.dtype.kind for array in flat.arrays.values()} <= {"b", "u", "i"}
            if kind == KIND_ROUND:
                assert not {"formula", "circuit", "stats"} & set(flat.fields)
                assert not any(name.startswith(("expr.", "circuit.")) for name in flat.arrays)
            else:
                assert {"formula", "circuit", "stats"} <= set(flat.fields)

    def test_persist_is_idempotent(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        writes = store.counters()["writes"]
        assert persist_artifact(store, fig1_artifact)
        assert store.counters()["writes"] == writes  # complete entry: no rewrite

    def test_loaded_artifact_structure(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        assert loaded is not None
        assert loaded.source == "store"
        assert loaded.load_seconds > 0.0
        assert loaded.build_seconds == 0.0
        assert loaded.signature == fig1_artifact.signature
        # The formula round-trips exactly (clauses, width, plan shape).
        assert loaded.formula.clauses == fig1_artifact.formula.clauses
        assert loaded.formula.num_variables == fig1_artifact.formula.num_variables
        # The plan was installed as the formula's memo, not recompiled.
        assert loaded.plan is loaded.formula.evaluation_plan()
        # The engine programs were adopted into the circuit's memo.
        memo = list(loaded.transform.circuit.engine_cache().values())
        programs = [p for p in (loaded.round.learn, loaded.round.fill) if p is not None]
        assert programs and all(any(c is p for c in memo) for p in programs)

    def test_sampler_bit_stream_is_identical(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        for seed in (0, 7):
            fresh = _solutions(fig1_artifact, seed)
            from_store = _solutions(loaded, seed)
            assert fresh.shape == from_store.shape
            assert np.array_equal(fresh, from_store)

    def test_loaded_nbytes_matches_built(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        # The pending transform entry stays on disk, so it costs nothing.
        assert loaded.pending is not None
        assert loaded.nbytes == fig1_artifact.nbytes
        loaded.transform
        assert loaded.pending is None
        assert loaded.nbytes == fig1_artifact.nbytes

    def test_store_hit_samples_without_decoding_the_transform(self, tmp_path, fig1_artifact):
        persist_artifact(ArtifactStore(tmp_path / "store"), fig1_artifact)
        store = ArtifactStore(tmp_path / "store")  # a fresh process's handle
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        for seed in (0, 7):
            assert np.array_equal(
                _round_solutions(loaded, seed), _solutions(fig1_artifact, seed)
            )
        assert store.counters()["transform_decodes"] == 0
        assert loaded.pending is not None and loaded.objects is None
        # The first access to the transform decodes it, once.
        assert loaded.transform.constraints == fig1_artifact.transform.constraints
        assert loaded.formula.clauses == fig1_artifact.formula.clauses
        assert store.counters()["transform_decodes"] == 1

    def test_decoded_transform_reuses_the_round_programs(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        rebuilt = loaded.transform.round_plan
        assert rebuilt.learn is loaded.round.learn
        assert rebuilt.fill is loaded.round.fill
        assert loaded.formula.evaluation_plan() is loaded.plan

    def test_incremental_job_from_a_store_loaded_parent(self, tmp_path):
        base = planted_ksat(16, 40, 3, seed=11)
        delta = SamplingTask.build(assume=(2,)).delta
        built = build_artifact(base)
        persist_artifact(ArtifactStore(tmp_path / "store"), built)
        store = ArtifactStore(tmp_path / "store")
        loaded = load_sampling_artifact(store, built.signature)
        from_built = build_incremental_artifact(built, delta)
        from_loaded = build_incremental_artifact(loaded, delta)
        assert from_loaded.signature == from_built.signature
        assert store.counters()["transform_decodes"] == 1
        for seed in (0, 3):
            rows = _round_solutions(from_built, seed)
            assert rows.shape[0] > 0
            assert np.array_equal(_round_solutions(from_loaded, seed), rows)


class TestDegradedLoads:
    def test_missing_signature_loads_none(self, store):
        assert load_sampling_artifact(store, "unknown") is None

    def test_missing_round_entry_is_rebuilt_and_written_back(self, tmp_path, fig1_artifact):
        persist_artifact(ArtifactStore(tmp_path / "store"), fig1_artifact)
        signature = fig1_artifact.signature
        store = ArtifactStore(tmp_path / "store")
        store.object_path(KIND_ROUND, signature).unlink()
        loaded = load_sampling_artifact(store, signature)
        assert loaded is not None and loaded.source == "store"
        assert store.counters()["transform_decodes"] == 1
        assert store.contains(KIND_ROUND, signature)  # written back
        assert loaded.plan is loaded.formula.evaluation_plan()
        assert np.array_equal(_round_solutions(loaded), _solutions(fig1_artifact))
        # The next load is a round-only hit again.
        again = ArtifactStore(tmp_path / "store")
        hit = load_sampling_artifact(again, signature)
        assert hit.pending is not None
        assert np.array_equal(_round_solutions(hit), _solutions(fig1_artifact))
        assert again.counters()["transform_decodes"] == 0

    def test_corrupt_round_entry_is_rebuilt(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        path = store.object_path(KIND_ROUND, fig1_artifact.signature)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        assert loaded is not None
        counters = store.counters()
        assert counters["corrupt"] == 1 and counters["transform_decodes"] == 1
        assert path.read_bytes() != bytes(data)  # quarantined, then rewritten
        assert np.array_equal(_round_solutions(loaded), _solutions(fig1_artifact))

    def test_prune_keeps_both_entries_of_a_hot_signature(self, store, fig1_artifact):
        other = build_artifact(CNF([[1, 2], [-1, 3]], num_variables=3, name="other"))
        persist_artifact(store, fig1_artifact)
        persist_artifact(store, other)
        time.sleep(0.01)
        for _ in range(3):
            assert load_sampling_artifact(store, fig1_artifact.signature) is not None
        hot = [e for e in store.entries() if e.signature == fig1_artifact.signature]
        assert len(hot) == 2
        removed = store.prune(sum(entry.nbytes for entry in hot))
        assert {entry.signature for entry in removed} == {other.signature}
        assert store.contains(KIND_ROUND, fig1_artifact.signature)
        assert store.contains(KIND_TRANSFORM, fig1_artifact.signature)

    def test_corrupt_transform_entry_is_a_miss(self, store, fig1_artifact):
        persist_artifact(store, fig1_artifact)
        path = store.object_path(KIND_TRANSFORM, fig1_artifact.signature)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # A hit does not read the transform entry; its first decode does,
        # finds it corrupt and quarantines it, so the next load is a miss.
        loaded = load_sampling_artifact(store, fig1_artifact.signature)
        assert loaded is not None
        with pytest.raises(StoreFormatError):
            loaded.transform
        assert not store.contains(KIND_TRANSFORM, fig1_artifact.signature)
        assert load_sampling_artifact(store, fig1_artifact.signature) is None


class TestFetchOrBuild:
    def test_none_store_builds(self, fig1, fig1_signature):
        artifact, source = fetch_or_build_artifact(
            None, fig1_signature, lambda: build_artifact(fig1, fig1_signature)
        )
        assert source == "built" and artifact.source == "built"

    def test_cold_build_persists_then_warm_loads(self, store, fig1, fig1_signature):
        builds = []

        def builder():
            builds.append(1)
            return build_artifact(fig1, fig1_signature)

        first, source1 = fetch_or_build_artifact(store, fig1_signature, builder)
        assert source1 == "built" and len(builds) == 1
        second, source2 = fetch_or_build_artifact(store, fig1_signature, builder)
        assert source2 == "store" and len(builds) == 1
        assert np.array_equal(_solutions(first), _solutions(second))

    def test_build_lease_is_released_on_builder_failure(
        self, store, fig1, fig1_signature
    ):
        with pytest.raises(RuntimeError):
            fetch_or_build_artifact(
                store, fig1_signature, lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            )
        assert not store.lock_path(fig1_signature).exists()
        # The signature is still buildable afterwards.
        artifact, source = fetch_or_build_artifact(
            store, fig1_signature, lambda: build_artifact(fig1, fig1_signature)
        )
        assert source == "built" and artifact is not None

    def test_unwritable_store_still_returns_artifacts(self, tmp_path, fig1, fig1_signature):
        from repro.store import ArtifactStore

        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        store = ArtifactStore(blocked)
        artifact, source = fetch_or_build_artifact(
            store, fig1_signature, lambda: build_artifact(fig1, fig1_signature)
        )
        assert source == "built"
        assert np.array_equal(
            _solutions(artifact), _solutions(build_artifact(fig1, fig1_signature))
        )
