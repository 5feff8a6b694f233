"""ArtifactCache with a persistent second tier: memory -> store -> build."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.pipeline import sample_cnf
from repro.core.sampler import GradientSATSampler
from repro.core.signatures import formula_signature
from repro.core.task import SamplingTask
from repro.core.transform import transform_cnf
from repro.serve.cache import ArtifactCache
from repro.store import ArtifactStore, KIND_TRANSFORM, StoreFormatError
from repro.store.format import FlatPayload, encode_entry, verify_entry
from tests.conftest import FIG1_DIMACS
from tests.corpus.generators import planted_ksat


def _fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


def _corrupt_transform(store, signature):
    """Flip one byte in the middle of the store's ``transform`` entry."""
    path = store.object_path(KIND_TRANSFORM, signature)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _invalidate_transform(store, signature):
    """Rewrite the store's ``transform`` entry with a valid checksum but an
    expression child that points forward, which its schema rejects."""
    path = store.object_path(KIND_TRANSFORM, signature)
    flat = verify_entry(bytearray(path.read_bytes()), kind=KIND_TRANSFORM).decode()
    arrays = {name: array.copy() for name, array in flat.arrays.items()}
    arrays["expr.children"][0] = len(arrays["expr.opcodes"])
    path.write_bytes(encode_entry(KIND_TRANSFORM, signature, FlatPayload(flat.fields, arrays)))


class TestGetOrBuild:
    def test_cold_build_persists(self, store):
        cache = ArtifactCache(store=store)
        artifact, built = cache.get_or_build(_fig1())
        assert built and artifact.source == "built"
        assert store.contains(KIND_TRANSFORM, artifact.signature)

    def test_second_process_loads_instead_of_building(self, tmp_path):
        directory = tmp_path / "shared"
        first = ArtifactCache(store=ArtifactStore(directory))
        built_artifact, built = first.get_or_build(_fig1())
        assert built

        # A different cache over the same directory models a fresh process.
        second = ArtifactCache(store=ArtifactStore(directory))
        loaded, built2 = second.get_or_build(_fig1())
        assert not built2
        assert loaded.source == "store"
        assert loaded.signature == built_artifact.signature

    def test_memory_tier_wins_over_store(self, store):
        cache = ArtifactCache(store=store)
        first, _ = cache.get_or_build(_fig1())
        hits_before = store.counters()["hits"]
        again, built = cache.get_or_build(_fig1())
        assert again is first and not built
        assert store.counters()["hits"] == hits_before  # store never consulted

    def test_evicting_a_store_hit_does_not_decode_it(self, tmp_path):
        directory = tmp_path / "shared"
        ArtifactCache(store=ArtifactStore(directory)).get_or_build(_fig1())
        store = ArtifactStore(directory)
        cache = ArtifactCache(max_entries=1, store=store)
        loaded, built = cache.get_or_build(_fig1())
        assert not built and loaded.pending is not None
        cache.get_or_build(CNF([[1, 2], [-1, 3]], num_variables=3))  # evicts it
        assert loaded.signature not in cache
        assert loaded.pending is not None
        assert store.counters()["transform_decodes"] == 0

    def test_stats_surface_store_counters(self, store):
        cache = ArtifactCache(store=store)
        cache.get_or_build(_fig1())
        stats = cache.stats()
        assert stats["store_writes"] == 2  # round + transform
        assert "store_hits" in stats and "store_corrupt" in stats

    def test_no_store_keeps_legacy_behaviour(self):
        cache = ArtifactCache()
        _, built_first = cache.get_or_build(_fig1())
        _, built_second = cache.get_or_build(_fig1())
        assert built_first and not built_second
        assert "store_hits" not in cache.stats()

    def test_corrupt_store_entry_falls_back_to_build(self, store):
        warmer = ArtifactCache(store=store)
        artifact, _ = warmer.get_or_build(_fig1())
        _corrupt_transform(store, artifact.signature)

        # The hit samples from its round; the transform's first decode finds
        # the entry corrupt and quarantines it.
        hit, built = ArtifactCache(store=ArtifactStore(store.root)).get_or_build(_fig1())
        assert not built and hit.source == "store"
        with pytest.raises(StoreFormatError):
            hit.transform
        fresh = ArtifactCache(store=ArtifactStore(store.root))
        rebuilt, built = fresh.get_or_build(_fig1())
        assert built and rebuilt.source == "built"
        # The bad entry was quarantined and replaced by the rebuild.
        assert store.contains(KIND_TRANSFORM, artifact.signature)

    def test_store_loaded_solutions_match_built(self, tmp_path):
        from repro.core.config import SamplerConfig
        from repro.core.sampler import GradientSATSampler

        def sample(artifact):
            sampler = GradientSATSampler(
                artifact.formula,
                transform=artifact.transform,
                config=SamplerConfig.paper_defaults(batch_size=64, seed=3, max_rounds=6),
            )
            return sampler.sample(num_solutions=20).solutions.to_matrix()

        directory = tmp_path / "shared"
        built, _ = ArtifactCache(store=ArtifactStore(directory)).get_or_build(_fig1())
        loaded, _ = ArtifactCache(store=ArtifactStore(directory)).get_or_build(_fig1())
        assert loaded.source == "store"
        assert np.array_equal(sample(built), sample(loaded))


def _base():
    return planted_ksat(16, 40, 3, seed=11)


class TestGetOrBuildTask:
    def _delta_task(self):
        # A unit assumption: a satisfiable, genuinely different formula.
        return SamplingTask.build(assume=(2,))

    def test_task_artifacts_persist_and_reload(self, tmp_path):
        directory = tmp_path / "shared"
        formula = _base()
        base_signature = formula_signature(formula)
        task = self._delta_task()
        effective_signature = formula_signature(task.apply_to(formula))

        first = ArtifactCache(store=ArtifactStore(directory))
        artifact, built, derived = first.get_or_build_task(
            task, effective_signature, base_signature, loader=_base
        )
        assert built and not derived  # no warm parent: cold build of effective

        second = ArtifactCache(store=ArtifactStore(directory))
        loaded, built2, derived2 = second.get_or_build_task(
            task, effective_signature, base_signature, loader=_base
        )
        assert (built2, derived2) == (False, False)
        assert loaded.source == "store"
        assert loaded.signature == effective_signature

    def test_incremental_derivation_still_works_with_store(self, store):
        cache = ArtifactCache(store=store)
        formula = _base()
        base_signature = formula_signature(formula)
        base, built, derived = cache.get_or_build_task(
            None, base_signature, base_signature, loader=_base
        )
        assert (built, derived) == (True, False)

        task = self._delta_task()
        effective_signature = formula_signature(task.apply_to(formula))
        artifact, built2, derived2 = cache.get_or_build_task(
            task, effective_signature, base_signature, loader=_base
        )
        assert (built2, derived2) == (True, True)  # derived from the warm parent
        assert artifact.incremental
        # The derived artifact was persisted under the effective signature.
        assert store.contains(KIND_TRANSFORM, effective_signature)


class TestUndecodableTransform:
    """A ``transform`` entry that verifies but fails its schema's validation
    (say, one whose arrays were damaged and re-checksummed) is a miss: the
    store is only an accelerator."""

    def test_incremental_job_over_it_builds_cold(self, tmp_path):
        directory = tmp_path / "shared"
        base_signature = formula_signature(_base())
        ArtifactCache(store=ArtifactStore(directory)).get_or_build_task(
            None, base_signature, base_signature, loader=_base
        )
        store = ArtifactStore(directory)
        cache = ArtifactCache(store=store)
        parent, _, _ = cache.get_or_build_task(
            None, base_signature, base_signature, loader=_base
        )
        assert parent.source == "store" and parent.pending is not None
        _invalidate_transform(store, base_signature)
        for assume in ((2,), (3,)):
            task = SamplingTask.build(assume=assume)
            effective = task.apply_to(_base())
            artifact, built, derived = cache.get_or_build_task(
                task, formula_signature(effective), base_signature, loader=_base
            )
            assert (built, derived) == (True, False)  # no warm parent: cold
            cold = transform_cnf(effective)
            assert artifact.transform.definitions == cold.definitions
            assert artifact.transform.constraints == cold.constraints
        # The bad entry was decoded once, not once per job, and quarantined.
        assert store.counters()["transform_decodes"] == 1
        assert store.counters()["corrupt"] == 1
        assert not store.contains(KIND_TRANSFORM, base_signature)

    def test_pipeline_store_hit_falls_back_to_a_build(self, tmp_path):
        config = SamplerConfig(batch_size=32, seed=3, max_rounds=3)
        store_dir = str(tmp_path / "store")
        first = sample_cnf(_fig1(), num_solutions=10, config=config, store_dir=store_dir)
        _invalidate_transform(ArtifactStore(store_dir), formula_signature(_fig1()))
        second = sample_cnf(_fig1(), num_solutions=10, config=config, store_dir=store_dir)
        assert second.transform.definitions == first.transform.definitions
        assert np.array_equal(
            second.sample.solution_matrix(), first.sample.solution_matrix()
        )
        # The invalid entry was read, rejected and set aside.
        assert list((ArtifactStore(store_dir).version_root / "quarantine").iterdir())


class TestCorruptTransformEntry:
    """A hit reads only the ``round`` entry, so a corrupt ``transform`` entry
    surfaces at its first decode, not at the hit."""

    def test_hit_samples_from_the_round_alone(self, tmp_path):
        directory = tmp_path / "shared"
        built, _ = ArtifactCache(store=ArtifactStore(directory)).get_or_build(_fig1())
        store = ArtifactStore(directory)
        _corrupt_transform(store, built.signature)
        loaded, was_built = ArtifactCache(store=store).get_or_build(_fig1())
        assert not was_built and loaded.source == "store"
        config = SamplerConfig(batch_size=64, seed=3, max_rounds=4)
        rows = GradientSATSampler(loaded, config=config).sample(20).solution_matrix()
        expected = GradientSATSampler(built, config=config).sample(20).solution_matrix()
        assert np.array_equal(rows, expected)
        counters = store.counters()
        assert counters["transform_decodes"] == 0 and counters["corrupt"] == 0

    def test_incremental_job_over_it_builds_cold(self, tmp_path):
        directory = tmp_path / "shared"
        base_signature = formula_signature(_base())
        ArtifactCache(store=ArtifactStore(directory)).get_or_build_task(
            None, base_signature, base_signature, loader=_base
        )
        store = ArtifactStore(directory)
        _corrupt_transform(store, base_signature)
        cache = ArtifactCache(store=store)
        parent, _, _ = cache.get_or_build_task(
            None, base_signature, base_signature, loader=_base
        )
        assert parent.source == "store" and parent.pending is not None
        task = SamplingTask.build(assume=(2,))
        effective = task.apply_to(_base())
        artifact, built, derived = cache.get_or_build_task(
            task, formula_signature(effective), base_signature, loader=_base
        )
        assert (built, derived) == (True, False)  # no warm parent: cold
        cold = transform_cnf(effective)
        assert artifact.transform.definitions == cold.definitions
        assert artifact.transform.constraints == cold.constraints
        # The corrupt entry was quarantined when the derivation read it.
        assert store.counters()["corrupt"] == 1
        assert not store.contains(KIND_TRANSFORM, base_signature)
