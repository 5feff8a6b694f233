"""The ``repro-sat cache`` subcommand: stats / ls / verify / prune."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.store import ArtifactStore
from tests.store.conftest import flat


@pytest.fixture
def populated_dir(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("plan", "aaaa1111", flat(np.zeros(2048)))
    store.put("misc", "bbbb2222", flat(np.ones(512)))
    return tmp_path / "store"


def test_stats(populated_dir, capsys):
    assert main(["cache", "stats", "--store-dir", str(populated_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries         : 2" in out
    assert "plan" in out and "misc" in out


def test_ls(populated_dir, capsys):
    assert main(["cache", "ls", "--store-dir", str(populated_dir)]) == 0
    out = capsys.readouterr().out
    assert "aaaa1111" in out and "bbbb2222" in out


def test_verify_clean_store(populated_dir, capsys):
    assert main(["cache", "verify", "--store-dir", str(populated_dir)]) == 0
    assert "2 intact, 0 bad" in capsys.readouterr().out


def test_verify_reports_corruption(populated_dir, capsys):
    store = ArtifactStore(populated_dir)
    path = store.object_path("plan", "aaaa1111")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    assert main(["cache", "verify", "--store-dir", str(populated_dir)]) == 1
    captured = capsys.readouterr()
    assert "1 intact, 1 bad" in captured.out
    assert "BAD" in captured.err


def test_prune(populated_dir, capsys):
    assert main(
        ["cache", "prune", "--store-dir", str(populated_dir), "--max-bytes", "0"]
    ) == 0
    assert "pruned 2 entries" in capsys.readouterr().out
    assert ArtifactStore(populated_dir).stats()["entries"] == 0


def test_prune_requires_max_bytes(populated_dir):
    with pytest.raises(SystemExit):
        main(["cache", "prune", "--store-dir", str(populated_dir)])


def test_env_var_names_the_store(populated_dir, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(populated_dir))
    assert main(["cache", "stats"]) == 0
    assert str(populated_dir) in capsys.readouterr().out


@pytest.fixture
def artifact_dir(tmp_path):
    """A store holding one built artifact: its round and transform entries."""
    from repro.cnf.dimacs import parse_dimacs
    from repro.serve.cache import build_artifact
    from repro.store import persist_artifact
    from tests.conftest import FIG1_DIMACS

    store = ArtifactStore(tmp_path / "store")
    artifact = build_artifact(parse_dimacs(FIG1_DIMACS, name="fig1"))
    assert persist_artifact(store, artifact)
    return store, artifact


def test_verify_accepts_v3_round_entries(artifact_dir, capsys):
    from repro.store import KIND_ROUND, KIND_TRANSFORM

    store, artifact = artifact_dir
    assert store.get(KIND_ROUND, artifact.signature) is not None
    assert store.get(KIND_TRANSFORM, artifact.signature) is not None
    assert main(["cache", "verify", "--store-dir", str(store.root)]) == 0
    assert "2 intact, 0 bad" in capsys.readouterr().out


def test_verify_rejects_a_checksummed_but_invalid_round(artifact_dir, capsys):
    # A valid checksum is not enough: the round must pass its schema.
    from repro.store import KIND_ROUND
    from repro.store.schema import encode_round

    store, artifact = artifact_dir
    flat = encode_round(artifact.round, artifact.plan)
    opcodes = flat.arrays["learn.opcodes"].copy()
    opcodes[0] = 3
    flat.arrays["learn.opcodes"] = opcodes
    store.object_path(KIND_ROUND, artifact.signature).unlink()
    assert store.put(KIND_ROUND, artifact.signature, flat)
    assert main(["cache", "verify", "--store-dir", str(store.root)]) == 1
    captured = capsys.readouterr()
    assert "1 intact, 1 bad" in captured.out
    assert "BAD" in captured.err and "opcode" in captured.err
