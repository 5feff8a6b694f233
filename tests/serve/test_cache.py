"""Tests for the formula-keyed artifact cache (repro.serve.cache)."""

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.signatures import formula_signature
from repro.serve.cache import ArtifactCache, build_artifact
from tests.conftest import FIG1_DIMACS


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


class TestFormulaSignature:
    def test_equal_formulas_share_a_signature(self, fig1):
        other = parse_dimacs(FIG1_DIMACS, name="renamed-copy")
        assert formula_signature(fig1) == formula_signature(other)

    def test_name_and_comments_do_not_matter(self, tiny_sat_formula):
        from repro.cnf.formula import CNF

        twin = CNF([[1, 2], [-1, 3]], num_variables=3, name="other-name",
                   comments=["c a comment"])
        assert formula_signature(tiny_sat_formula) == formula_signature(twin)

    def test_clause_order_matters(self):
        from repro.cnf.formula import CNF

        a = CNF([[1, 2], [-1, 3]], num_variables=3)
        b = CNF([[-1, 3], [1, 2]], num_variables=3)
        assert formula_signature(a) != formula_signature(b)

    def test_variable_count_matters(self):
        from repro.cnf.formula import CNF

        a = CNF([[1, 2]], num_variables=2)
        b = CNF([[1, 2]], num_variables=3)
        assert formula_signature(a) != formula_signature(b)


class TestArtifactCache:
    def test_build_then_hit_returns_same_artifact(self, fig1):
        cache = ArtifactCache(max_entries=4)
        first, built_first = cache.get_or_build(fig1)
        second, built_second = cache.get_or_build(parse_dimacs(FIG1_DIMACS))
        assert built_first and not built_second
        assert second is first
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_artifact_is_complete(self, fig1):
        artifact = build_artifact(fig1)
        assert artifact.transform.constraints  # fig1 has a constrained path
        assert artifact.plan is artifact.formula.evaluation_plan()
        # the engine program was compiled eagerly into the circuit memo
        memo = artifact.transform.circuit.engine_cache().values()
        assert any(program is artifact.round.learn for program in memo)
        assert artifact.nbytes > 0
        assert artifact.build_seconds > 0.0

    def test_sampling_from_artifact_matches_direct_run(self, fig1):
        from repro.core.config import SamplerConfig
        from repro.core.sampler import GradientSATSampler

        cache = ArtifactCache()
        artifact, _ = cache.get_or_build(fig1)
        config = SamplerConfig(batch_size=32, seed=5)
        warm = GradientSATSampler(
            artifact.formula, transform=artifact.transform, config=config
        ).sample(20)
        cold = GradientSATSampler(parse_dimacs(FIG1_DIMACS), config=config).sample(20)
        assert np.array_equal(warm.solutions.to_matrix(), cold.solutions.to_matrix())

    def test_lru_entry_bound(self, fig1, tiny_sat_formula):
        cache = ArtifactCache(max_entries=1)
        first, _ = cache.get_or_build(fig1)
        cache.get_or_build(tiny_sat_formula)
        assert len(cache) == 1
        assert first.signature not in cache
        # rebuilt on the next request (a fresh object, not the evicted one)
        rebuilt, built = cache.get_or_build(fig1)
        assert built and rebuilt is not first

    def test_byte_bound_evicts(self, fig1, tiny_sat_formula):
        probe = build_artifact(parse_dimacs(FIG1_DIMACS))
        cache = ArtifactCache(max_entries=8, max_bytes=probe.nbytes + 1)
        cache.get_or_build(fig1)
        cache.get_or_build(tiny_sat_formula)  # pushes total over the bound
        assert len(cache) == 1

    def test_eviction_releases_memoised_state(self, fig1, tiny_sat_formula):
        cache = ArtifactCache(max_entries=1)
        artifact, _ = cache.get_or_build(fig1)
        cache.get_or_build(tiny_sat_formula)  # evicts fig1's artifact
        assert not artifact.transform.circuit.engine_cache()

    def test_clear(self, fig1):
        cache = ArtifactCache()
        cache.get_or_build(fig1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 1
