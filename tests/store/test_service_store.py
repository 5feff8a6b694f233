"""SamplingService with a persistent store: warm starts, pool single-flight."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cnf.dimacs import parse_dimacs
from repro.core.config import SamplerConfig
from repro.serve import SamplingService
from repro.store import ArtifactStore, KIND_TRANSFORM
from tests.conftest import FIG1_DIMACS

CONFIG = SamplerConfig(batch_size=32, seed=0)
TIMEOUT = 120.0


def _pickle_layout_entry(kind: str, signature: str, stream: bytes) -> bytes:
    """An entry in the deleted ``pickle`` payload layout (what format v4
    wrote), stamped with the current container version and a valid checksum."""
    import json
    import struct
    import sys
    import time

    from repro.store.format import ALIGNMENT, FORMAT_VERSION, MAGIC, _checksum, _repro_version

    payload = stream + b"\0" * (-len(stream) % ALIGNMENT)
    header = {
        "kind": kind,
        "signature": signature,
        "version": _repro_version(),
        "byte_order": sys.byteorder,
        "created": time.time(),
        "payload_length": len(payload),
        "layout": "pickle",
        "pickle": [0, len(stream)],
        "buffers": [],
    }
    header["checksum"] = _checksum(header, memoryview(payload))
    header_bytes = json.dumps(header, sort_keys=True).encode()
    prelude = struct.pack("<4sHI", MAGIC, FORMAT_VERSION, len(header_bytes))
    used = len(prelude) + len(header_bytes)
    return prelude + header_bytes + b"\0" * (-used % ALIGNMENT) + payload


@pytest.fixture
def fig1():
    return parse_dimacs(FIG1_DIMACS, name="fig1")


class TestInlineService:
    def test_round_only_store_hit_never_unpickles(self, tmp_path, fig1, monkeypatch):
        # Every store entry is fields plus arrays, so nothing a store load
        # does unpickles.  With unpickling made to fail, each store-backed
        # path yields the rows a run without a store yields, bit for bit: a
        # round-only hit, an incremental job derived from a store-loaded
        # parent (which decodes the transform entry), a ``sample_cnf`` hit
        # (whose summary decodes it too) and a hit whose damaged round entry
        # is quarantined and rebuilt from the transform.
        import pickle

        from repro.core.pipeline import sample_cnf
        from repro.core.signatures import formula_signature
        from repro.core.task import SamplingTask
        from repro.serve.cache import build_artifact
        from repro.store import KIND_ROUND, persist_artifact

        store_dir = tmp_path / "store"
        assert persist_artifact(ArtifactStore(store_dir), build_artifact(fig1))
        tasks = (None, SamplingTask.build(assume=(1,)))

        def serve(store):
            with SamplingService(num_workers=0, store_dir=store) as service:
                ids = [
                    service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False, task=task)
                    for task in tasks
                ]
                return [service.result(job_id) for job_id in ids]

        def piped(store):
            result = sample_cnf(fig1, num_solutions=8, config=CONFIG, store_dir=store)
            return result.sample.solution_matrix()

        built, built_rows = serve(False), piped(False)
        unpickled = []

        def refuse(*args, **kwargs):
            unpickled.append(args)
            raise AssertionError("a store load unpickled something")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "Unpickler", refuse)
        warm, incremental = serve(store_dir)
        assert warm.status == incremental.status == "done"
        assert warm.summary["store_hits"] == 1 and warm.summary["cold_builds"] == 0
        assert warm.members[0]["artifact_source"] == "store"
        assert warm.members[0]["cache_stats"]["store_transform_decodes"] == 0
        member = incremental.members[0]
        assert member["incremental_artifact"] is True
        assert member["cache_stats"]["store_transform_decodes"] == 1
        for result, expected in zip((warm, incremental), built):
            assert len(result.solutions) > 0
            np.testing.assert_array_equal(
                result.solutions.to_matrix(), expected.solutions.to_matrix()
            )
        np.testing.assert_array_equal(piped(store_dir), built_rows)

        store = ArtifactStore(store_dir)
        path = store.object_path(KIND_ROUND, formula_signature(fig1))
        damaged = bytearray(path.read_bytes())
        damaged[-1] ^= 0xFF
        path.write_bytes(bytes(damaged))
        rebuilt, _ = serve(store_dir)
        assert rebuilt.summary["store_hits"] == 1 and rebuilt.summary["cold_builds"] == 0
        assert rebuilt.members[0]["cache_stats"]["store_corrupt"] == 1
        np.testing.assert_array_equal(
            rebuilt.solutions.to_matrix(), built[0].solutions.to_matrix()
        )
        assert unpickled == []

    def test_cold_then_store_warm_across_service_instances(self, tmp_path, fig1):
        store_dir = tmp_path / "store"

        with SamplingService(num_workers=0, store_dir=store_dir) as first:
            result = first.result(
                first.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
            assert result.summary["cold_builds"] == 1
            assert result.members[0]["artifact_source"] == "built"
            cold_matrix = result.solutions.to_matrix()

        # The artifact landed on disk under the service's store.
        assert ArtifactStore(store_dir).entries()  # something was persisted

        # A brand-new service over the same directory never compiles.
        with SamplingService(num_workers=0, store_dir=store_dir) as second:
            warm = second.result(
                second.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
            assert warm.summary["cold_builds"] == 0
            assert warm.summary["store_hits"] == 1
            member = warm.members[0]
            assert member["artifact_source"] == "store"
            assert member["load_seconds"] > 0.0
            assert np.array_equal(warm.solutions.to_matrix(), cold_matrix)

    def test_plan_entry_with_the_removed_native_memo_still_serves(
        self, tmp_path, fig1, monkeypatch
    ):
        # Stores written before the native CNF kernel was deleted pickled
        # each CNFEvalPlan with a ``_native_arrays`` memo field, and before
        # format v5 entries could be pickles.  Such an entry, even stamped
        # with the current container version and a valid checksum, is never
        # unpickled: it must be a clean miss, rebuilt, and never fail a job.
        import pickle

        from repro.cnf.kernel import CNFEvalPlan
        from repro.core.signatures import formula_signature
        from repro.serve.cache import build_artifact
        from repro.store import KIND_ROUND, persist_artifact

        store = ArtifactStore(tmp_path / "store")
        signature = formula_signature(fig1)
        artifact = build_artifact(fig1, signature)
        assert persist_artifact(store, artifact)
        with monkeypatch.context() as patch:
            patch.setattr(
                CNFEvalPlan,
                "__getstate__",
                lambda plan: {**plan.__dict__, "_native_arrays": {}},
                raising=False,
            )
            stream = pickle.dumps({"round": artifact.round, "plan": artifact.plan})
        store.object_path(KIND_ROUND, signature).write_bytes(
            _pickle_layout_entry(KIND_ROUND, signature, stream)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a store load unpickled something")

        with monkeypatch.context() as patch:
            patch.setattr(pickle, "loads", refuse)
            patch.setattr(pickle, "Unpickler", refuse)
            with SamplingService(num_workers=0, store_dir=store.root) as service:
                old = service.result(
                    service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
                )
        with SamplingService(num_workers=0) as service:
            fresh = service.result(
                service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
        assert old.status == "done"
        assert old.summary["store_hits"] == 1 and old.summary["cold_builds"] == 0
        assert np.array_equal(old.solutions.to_matrix(), fresh.solutions.to_matrix())
        # The rejected entry was set aside and the round rewritten as arrays.
        assert store.get(KIND_ROUND, signature) is not None
        assert list((store.version_root / "quarantine").iterdir())

    def test_store_hit_decodes_no_transform_entry(self, tmp_path, fig1):
        store_dir = tmp_path / "store"
        with SamplingService(num_workers=0, store_dir=store_dir) as first:
            first.result(first.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False))
        with SamplingService(num_workers=0, store_dir=store_dir) as second:
            results = [
                second.result(
                    second.submit(
                        fig1, num_solutions=8, config=CONFIG.with_(seed=seed), coalesce=False
                    )
                )
                for seed in (0, 1)
            ]
        assert [r.members[0]["artifact_source"] for r in results] == ["store", "memory"]
        assert results[-1].members[0]["cache_stats"]["store_transform_decodes"] == 0

    def test_member_records_carry_cache_stats(self, tmp_path, fig1):
        with SamplingService(num_workers=0, store_dir=tmp_path / "store") as service:
            result = service.result(
                service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
        stats = result.members[0]["cache_stats"]
        assert stats["store_writes"] == 2  # round + transform
        assert "hits" in stats and "misses" in stats

    def test_no_store_by_default(self, tmp_path, fig1, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with SamplingService(num_workers=0) as service:
            assert service.store_dir is None
            result = service.result(
                service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
            assert result.summary["cold_builds"] == 1
            assert "store_writes" not in result.members[0].get("cache_stats", {})

    def test_env_var_enables_store(self, tmp_path, fig1, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        with SamplingService(num_workers=0) as service:
            assert service.store_dir == str(tmp_path / "env-store")
            service.result(
                service.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False)
            )
        assert ArtifactStore(tmp_path / "env-store").entries()


class TestPoolService:
    def test_pool_single_flight_one_build_total(self, tmp_path, fig1):
        # Enough same-formula jobs to overflow the affinity spill threshold:
        # the backlog forces a second worker onto the signature, and the
        # store (load or build-lease wait) spares it the recompile — one
        # cold build total, however the pool interleaves.
        store_dir = tmp_path / "store"
        with SamplingService(num_workers=2, store_dir=store_dir) as service:
            job_ids = [
                service.submit(
                    fig1,
                    num_solutions=8,
                    config=CONFIG.with_(seed=100 + index),
                    coalesce=False,
                )
                for index in range(5)
            ]
            results = [service.result(job_id, timeout=TIMEOUT) for job_id in job_ids]
        assert all(result.status == "done" for result in results)
        sources = [result.members[0]["artifact_source"] for result in results]
        assert sum(result.summary["cold_builds"] for result in results) == 1
        assert sources.count("built") == 1
        assert set(sources) <= {"built", "memory", "store"}
        # The spilled worker warmed from the store, not a recompile.
        workers = {result.members[0]["worker"] for result in results}
        if len(workers) > 1:
            assert "store" in sources

    def test_second_pool_run_is_all_store_hits(self, tmp_path, fig1):
        store_dir = tmp_path / "store"
        with SamplingService(num_workers=2, store_dir=store_dir) as first:
            first.result(
                first.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False),
                timeout=TIMEOUT,
            )
        with SamplingService(num_workers=2, store_dir=store_dir) as second:
            warm = second.result(
                second.submit(fig1, num_solutions=8, config=CONFIG, coalesce=False),
                timeout=TIMEOUT,
            )
        assert warm.summary["cold_builds"] == 0
        assert warm.summary["store_hits"] == 1
        assert warm.members[0]["cache_stats"]["store_transform_decodes"] == 0

    def test_store_results_match_no_store_results(self, tmp_path, fig1):
        with SamplingService(num_workers=1, store_dir=tmp_path / "store") as with_store:
            stored = with_store.result(
                with_store.submit(fig1, num_solutions=16, config=CONFIG, coalesce=False),
                timeout=TIMEOUT,
            )
        with SamplingService(num_workers=1) as plain:
            bare = plain.result(
                plain.submit(fig1, num_solutions=16, config=CONFIG, coalesce=False),
                timeout=TIMEOUT,
            )
        assert np.array_equal(
            stored.solutions.to_matrix(), bare.solutions.to_matrix()
        )
