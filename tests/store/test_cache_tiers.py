"""ArtifactCache with a persistent second tier: memory -> store -> build."""

from __future__ import annotations

import numpy as np

from repro.cnf import planted_ksat
from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF
from repro.core.signatures import formula_signature
from repro.core.task import SamplingTask
from repro.serve.cache import ArtifactCache
from repro.store import ArtifactStore, KIND_TRANSFORM
from tests.conftest import FIG1_DIMACS


def _fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


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
        path = store.object_path(KIND_TRANSFORM, artifact.signature)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

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
