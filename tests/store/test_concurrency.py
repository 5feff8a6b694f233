"""Cross-process store behaviour: racing writers and single-flight builds.

Every worker function lives at module top level so the ``spawn`` start
method (the service pool's own start method) can pickle it by reference.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
from repro.store import ArtifactStore, KIND_TRANSFORM
from repro.store.format import FlatPayload

_SPAWN = multiprocessing.get_context("spawn")


def _writer(root, signature, barrier_dir, done_dir):
    """Put one entry under ``signature``, starting as simultaneously as the
    scheduler allows (all writers spin until the go-file appears)."""
    store = ArtifactStore(root)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(os.path.join(barrier_dir, "go")):
        if time.monotonic() > deadline:
            raise RuntimeError("barrier never opened")
        time.sleep(0.001)
    payload = FlatPayload(fields={"signature": signature}, arrays={"data": np.arange(50_000)})
    for _ in range(5):
        store.put("plan", signature, payload)
    with open(os.path.join(done_dir, f"{os.getpid()}.done"), "w") as handle:
        handle.write("ok")


def _single_flight_worker(root, signature, builds_dir, results_dir):
    """Resolve one cold signature through the single-flight protocol."""
    from repro.cnf.dimacs import parse_dimacs
    from repro.serve.cache import build_artifact
    from repro.store import fetch_or_build_artifact
    from tests.conftest import FIG1_DIMACS

    store = ArtifactStore(root)

    def builder():
        # Log the build *before* doing it, then dilate the race window so
        # overlapping processes are forced through the wait path.
        with open(os.path.join(builds_dir, f"{os.getpid()}.built"), "w") as handle:
            handle.write("built")
        time.sleep(0.3)
        return build_artifact(parse_dimacs(FIG1_DIMACS, name="fig1"), signature)

    artifact, source = fetch_or_build_artifact(store, signature, builder)
    assert artifact is not None and artifact.signature == signature
    with open(os.path.join(results_dir, f"{os.getpid()}.{source}"), "w") as handle:
        handle.write(source)


class TestConcurrentWriters:
    def test_racing_writers_leave_a_valid_store(self, tmp_path):
        root = tmp_path / "store"
        barrier_dir = tmp_path / "barrier"
        done_dir = tmp_path / "done"
        barrier_dir.mkdir()
        done_dir.mkdir()

        processes = [
            _SPAWN.Process(
                target=_writer,
                args=(str(root), "shared-sig", str(barrier_dir), str(done_dir)),
            )
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        (barrier_dir / "go").write_text("go")
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        assert len(list(done_dir.iterdir())) == 4
        # However the renames interleaved, the surviving entry is intact.
        store = ArtifactStore(root)
        loaded = store.get("plan", "shared-sig")
        assert loaded is not None
        assert loaded.fields == {"signature": "shared-sig"}
        assert np.array_equal(loaded.arrays["data"], np.arange(50_000))
        intact, bad = store.verify()
        assert not bad and len(intact) == 1
        # No temp droppings anywhere in the objects tree.
        leftovers = [
            p
            for p in (store.version_root / "objects").rglob("*")
            if p.is_file() and not p.name.endswith(".bin")
        ]
        assert leftovers == []


class TestSingleFlight:
    def test_exactly_one_cold_build_across_processes(self, tmp_path):
        from repro.cnf.dimacs import parse_dimacs
        from repro.core.signatures import formula_signature
        from tests.conftest import FIG1_DIMACS

        signature = formula_signature(parse_dimacs(FIG1_DIMACS, name="fig1"))
        root = tmp_path / "store"
        builds_dir = tmp_path / "builds"
        results_dir = tmp_path / "results"
        builds_dir.mkdir()
        results_dir.mkdir()

        processes = [
            _SPAWN.Process(
                target=_single_flight_worker,
                args=(str(root), signature, str(builds_dir), str(results_dir)),
            )
            for _ in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        assert len(list(builds_dir.iterdir())) == 1  # single flight
        results = sorted(p.suffix for p in results_dir.iterdir())
        assert len(results) == 4
        assert results.count(".built") == 1
        assert results.count(".store") == 3
        # The winner's artifact landed in the store for future processes.
        store = ArtifactStore(root)
        assert store.contains(KIND_TRANSFORM, signature)
        assert not store.lock_path(signature).exists()
