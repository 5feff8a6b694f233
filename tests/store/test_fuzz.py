"""Store readers under byte flips and truncations of either entry kind.

Every mutated entry must either be a miss — quarantined and rebuilt — or
load as the exact artifact.  Nothing may raise out of ``ArtifactStore.get``,
a load, or the deferred decode, and no mutation may yield a wrong artifact:
the fixed-seed rows always equal a cold build's.
"""

from __future__ import annotations

import functools
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.signatures import formula_signature
from repro.serve.cache import ArtifactCache, build_artifact
from repro.store import (
    ALL_KINDS,
    KIND_TRANSFORM,
    ArtifactStore,
    load_sampling_artifact,
    persist_artifact,
)
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig.paper_defaults(batch_size=64, seed=5, max_rounds=4)


def _fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


def _rows(artifact):
    sampler = GradientSATSampler(artifact, config=CONFIG)
    return sampler.sample(num_solutions=20).solution_matrix()


@functools.lru_cache(maxsize=None)
def _pristine():
    """``(signature, {kind: entry bytes}, cold-build rows)`` for Fig. 1."""
    artifact = build_artifact(_fig1())
    with tempfile.TemporaryDirectory() as directory:
        store = ArtifactStore(directory)
        assert persist_artifact(store, artifact)
        entries = {
            kind: store.object_path(kind, artifact.signature).read_bytes()
            for kind in ALL_KINDS
        }
    return artifact.signature, entries, _rows(artifact)


def _mutate(data: bytes, mode: str, position: int, mask: int) -> bytes:
    if mode == "truncate":
        return data[: position % len(data)]
    mutated = bytearray(data)
    mutated[position % len(data)] ^= mask
    return bytes(mutated)


def _seeded_store(directory, kind, mutated):
    signature, entries, _ = _pristine()
    store = ArtifactStore(directory)
    for entry_kind, data in entries.items():
        path = store.object_path(entry_kind, signature)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(mutated if entry_kind == kind else data)
    return store


mutations = st.tuples(
    st.sampled_from(ALL_KINDS),
    st.sampled_from(("flip", "truncate")),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
)


@settings(max_examples=120, deadline=None)
@given(mutations)
def test_mutated_entry_is_a_miss_or_the_exact_artifact(mutation):
    kind, mode, position, mask = mutation
    signature, entries, cold_rows = _pristine()
    mutated = _mutate(entries[kind], mode, position, mask)
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, kind, mutated)
        cache = ArtifactCache(store=store)
        artifact, built = cache.get_or_build(formula=_fig1(), signature=signature)
        quarantined = list((store.version_root / "quarantine").glob("*"))
        if store.counters()["corrupt"]:
            # A miss: the mutated bytes were set aside and the entry rebuilt.
            assert [path.read_bytes() for path in quarantined] == [mutated]
            assert built == (kind == KIND_TRANSFORM)
            fresh = ArtifactStore(directory)
            assert load_sampling_artifact(fresh, signature) is not None
            assert fresh.counters()["corrupt"] == 0
        else:
            assert not quarantined and not built and artifact.source == "store"
        np.testing.assert_array_equal(_rows(artifact), cold_rows)
        # The deferred decode (if still pending) never raises.
        assert artifact.formula.clauses == _fig1().clauses
        assert artifact.transform.num_variables == _fig1().num_variables


@settings(max_examples=60, deadline=None)
@given(mutations)
def test_store_get_never_raises(mutation):
    kind, mode, position, mask = mutation
    signature, entries, _ = _pristine()
    mutated = _mutate(entries[kind], mode, position, mask)
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, kind, mutated)
        loaded = store.get(kind, signature)
        if loaded is None:
            assert store.counters()["corrupt"] == 1
            assert not store.contains(kind, signature)  # quarantined
        else:
            assert store.counters()["hits"] == 1


def test_transform_corrupted_after_a_hit_still_decodes(tmp_path):
    signature, entries, cold_rows = _pristine()
    store = _seeded_store(tmp_path, None, b"")
    artifact = load_sampling_artifact(store, signature)
    assert artifact is not None and artifact.pending is not None
    path = store.object_path(KIND_TRANSFORM, signature)
    damaged = bytearray(path.read_bytes())
    damaged[len(damaged) // 2] ^= 0xFF
    path.write_bytes(bytes(damaged))
    # The artifact decodes from the bytes it verified, not from the file.
    assert artifact.formula.clauses == _fig1().clauses
    assert artifact.transform.constraints
    np.testing.assert_array_equal(_rows(artifact), cold_rows)
    assert formula_signature(artifact.formula) == signature
