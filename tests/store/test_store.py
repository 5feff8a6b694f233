"""ArtifactStore behaviour: writes, quarantine, prune, degraded modes."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.store import ArtifactStore
from repro.store import store as store_module
from repro.store.format import encode_entry
from tests.store.conftest import flat


class TestPutGet:
    def test_round_trip(self, store):
        assert store.put("plan", "a" * 16, flat(np.arange(32)))
        loaded = store.get("plan", "a" * 16)
        assert loaded.fields == {}
        assert np.array_equal(loaded.arrays["x"], np.arange(32))
        counters = store.counters()
        assert counters["writes"] == 1 and counters["hits"] == 1

    def test_missing_entry_is_a_miss(self, store):
        assert store.get("plan", "nope") is None
        assert store.counters()["misses"] == 1

    def test_contains(self, store):
        assert not store.contains("plan", "s")
        store.put("plan", "s", flat([1]))
        assert store.contains("plan", "s")

    def test_entries_and_stats(self, store):
        store.put("plan", "aa11", flat([1, 2, 3]))
        store.put("misc", "bb22", flat(np.ones(8)))
        entries = store.entries()
        assert {(e.kind, e.signature) for e in entries} == {
            ("plan", "aa11"),
            ("misc", "bb22"),
        }
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(e.nbytes for e in entries)
        assert stats["kinds"] == {"plan": 1, "misc": 1}

    def test_no_partial_entry_files(self, store):
        # Atomic rename: the objects tree never holds temp files after a put.
        store.put("plan", "cc33", flat(np.zeros(1024)))
        kind_dir = store.version_root / "objects" / "plan"
        names = [p.name for p in kind_dir.rglob("*") if p.is_file()]
        assert names == ["cc33.bin"]


class TestCorruption:
    def test_corrupt_entry_is_quarantined(self, store):
        store.put("plan", "dd44", flat(np.arange(100)))
        path = store.object_path("plan", "dd44")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

        assert store.get("plan", "dd44") is None
        assert store.counters()["corrupt"] == 1
        assert not path.exists()  # moved out of the objects tree
        assert list((store.version_root / "quarantine").iterdir())

    def test_truncated_entry_is_a_miss(self, store):
        store.put("plan", "ee55", flat(np.arange(100)))
        path = store.object_path("plan", "ee55")
        path.write_bytes(path.read_bytes()[:100])
        assert store.get("plan", "ee55") is None

    def test_entry_under_wrong_signature_is_rejected(self, store):
        # A foreign entry renamed into place must not be served.
        blob = encode_entry("plan", "actual-sig", flat([1, 2, 3]))
        path = store.object_path("plan", "claimed-sig")
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert store.get("plan", "claimed-sig") is None
        assert store.counters()["corrupt"] == 1

    def test_verify_reports_without_mutating(self, store):
        store.put("plan", "good", flat([1]))
        store.put("plan", "badd", flat([2]))
        path = store.object_path("plan", "badd")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

        intact, bad = store.verify()
        assert [e.signature for e in intact] == ["good"]
        assert [e.signature for (e, _reason) in bad] == ["badd"]
        assert path.exists()  # verify never quarantines


class TestPrune:
    def test_prune_respects_byte_bound(self, store):
        for index in range(6):
            store.put("plan", f"sig{index}", flat(np.zeros(4096)))
            time.sleep(0.01)  # distinct mtimes for a deterministic LRU order
        total = store.stats()["bytes"]
        bound = total // 2
        removed = store.prune(bound)
        assert removed  # something had to go
        assert store.stats()["bytes"] <= bound
        # Oldest entries go first.
        assert [e.signature for e in removed] == [f"sig{i}" for i in range(len(removed))]

    def test_get_refreshes_recency(self, store):
        store.put("plan", "old1", flat(np.zeros(4096)))
        time.sleep(0.01)
        store.put("plan", "new2", flat(np.zeros(4096)))
        time.sleep(0.01)
        store.get("plan", "old1")  # touch: now most recently used
        one_entry = max(e.nbytes for e in store.entries())
        store.prune(one_entry)
        assert store.contains("plan", "old1")
        assert not store.contains("plan", "new2")

    def test_prune_zero_empties_the_store(self, store):
        store.put("plan", "x", flat([1]))
        store.prune(0)
        assert store.stats()["entries"] == 0

    def test_prune_rejects_negative(self, store):
        with pytest.raises(ValueError):
            store.prune(-1)


class TestDegradedModes:
    def test_unwritable_directory_never_raises(self, tmp_path):
        # A plain file where the store root should be defeats every mkdir/
        # write/read with OSError — unlike chmod, this stays unwritable even
        # when the suite runs as root (CI containers).
        root = tmp_path / "blocked"
        root.write_text("not a directory")
        store = ArtifactStore(root)
        assert store.put("plan", "sig", flat([1])) is False
        assert store.get("plan", "sig") is None  # miss, no exception
        assert store.counters()["write_errors"] == 1
        assert store.stats()["entries"] == 0
        assert store.prune(0) == []
        assert store.lease("sig").acquire()  # no coordination: build locally

    def test_writes_disable_after_first_failure(self, tmp_path):
        root = tmp_path / "blocked"
        root.write_text("not a directory")
        store = ArtifactStore(root)
        store.put("plan", "one", flat([1]))
        store.put("plan", "two", flat([2]))
        assert store.counters()["write_errors"] == 1  # second put short-circuits

    def test_unpicklable_payload_is_counted_not_raised(self, store):
        # Only a FlatPayload of allowed dtypes encodes; anything else is an
        # encode failure.
        assert store.put("plan", "sig", lambda: None) is False
        assert store.counters()["write_errors"] == 1
        assert store._writes_disabled is False  # encode failures don't disable


class TestBuildLease:
    def test_acquire_release(self, store):
        lease = store.lease("sig")
        assert lease.acquire()
        assert store.lock_path("sig").exists()
        # Second claimant loses while the lock is held.
        assert not store.lease("sig").acquire()
        lease.release()
        assert not store.lock_path("sig").exists()
        assert store.lease("sig").acquire()

    def test_wait_returns_loaded_entry(self, store):
        lease = store.lease("sig")
        assert lease.acquire()
        waiter = store.lease("sig")
        assert not waiter.acquire()
        store.put("plan", "sig", flat([42]))
        loaded = waiter.wait(lambda: store.get("plan", "sig"), timeout=5.0)
        assert loaded.arrays["x"].tolist() == [42]
        lease.release()

    def test_wait_times_out_to_local_build(self, store):
        lease = store.lease("sig")
        assert lease.acquire()
        waiter = store.lease("sig")
        assert waiter.wait(lambda: None, timeout=0.05) is None
        lease.release()

    def test_dead_owner_lock_is_broken(self, store):
        # Forge a claim from a dead same-host pid: the next claimant wins.
        path = store.lock_path("sig")
        path.parent.mkdir(parents=True, exist_ok=True)
        import socket

        dead_pid = 2**22 - 1  # far beyond any live pid on test hosts
        path.write_text(f"{dead_pid} {socket.gethostname()} {time.time()}\n")
        assert store.lease("sig").acquire()

    def test_stale_lock_is_broken_by_age(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "STALE_LOCK_SECONDS", 0.01)
        store = ArtifactStore(tmp_path)
        path = store.lock_path("sig")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not-a-pid\n")
        time.sleep(0.05)
        assert store.lease("sig").acquire()
