"""Store readers under byte flips, truncations and structural mutations.

Every mutated entry must either be a miss — quarantined and rebuilt — or
load as the exact artifact.  Nothing may raise out of ``ArtifactStore.get``,
a load, or the deferred decode, and no mutation may yield a wrong artifact:
the fixed-seed rows always equal a cold build's.

A checksum only catches accidents, so the pickle-free ``round`` entry is
also fuzzed structurally: its decoded fields and arrays are mutated into
something the C kernels or the row maps must never run (an operand reading
its own or a later slot, an unknown opcode, a row or literal column out of
range, a length that disagrees, broken width groups, a wrong or disallowed
dtype) and re-encoded with a *valid* checksum.  Each must be rejected by
the schema and served as a miss.
"""

from __future__ import annotations

import functools
import json
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.signatures import formula_signature
from repro.serve.cache import ArtifactCache, build_artifact
from repro.store import (
    ALL_KINDS,
    KIND_ROUND,
    KIND_TRANSFORM,
    ArtifactStore,
    load_sampling_artifact,
    persist_artifact,
)
from repro.store.format import (
    ALIGNMENT,
    FlatPayload,
    StoreFormatError,
    _checksum,
    encode_entry,
    verify_entry,
)
from repro.store.schema import decode_round
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


# -- structural mutations of the round entry ----------------------------------------------
_PRELUDE = struct.Struct("<4sHI")


def _decoded_round():
    """Writable copies of the pristine round entry's fields and arrays."""
    _, entries, _ = _pristine()
    flat = verify_entry(bytearray(entries[KIND_ROUND]), kind=KIND_ROUND).decode()
    fields = json.loads(json.dumps(flat.fields))
    return fields, {name: array.copy() for name, array in flat.arrays.items()}


def _rewrite(blob: bytes, edit) -> bytes:
    """Re-emit ``blob`` with ``edit(header)`` applied and a valid checksum."""
    _, version, length = _PRELUDE.unpack_from(blob)
    header = json.loads(blob[_PRELUDE.size : _PRELUDE.size + length])
    start = -(-(_PRELUDE.size + length) // ALIGNMENT) * ALIGNMENT
    payload = blob[start:]
    edit(header)
    header["checksum"] = _checksum(header, memoryview(payload))
    header_bytes = json.dumps(header, sort_keys=True).encode()
    new_start = -(-(_PRELUDE.size + len(header_bytes)) // ALIGNMENT) * ALIGNMENT
    return (
        _PRELUDE.pack(b"RPRO", version, len(header_bytes))
        + header_bytes
        + b"\0" * (new_start - _PRELUDE.size - len(header_bytes))
        + payload
    )


def _programs(fields):
    return [role for role in ("learn", "fill") if fields[role] is not None]


def _out_of_range(data, limit: int) -> int:
    return data.draw(
        st.one_of(st.integers(-(2**40), -1), st.integers(limit, limit + 2**40)),
        label="value",
    )


def _broken_round(case: str, data) -> bytes:
    """A round entry broken the way ``case`` names, with a valid checksum."""
    signature = _pristine()[0]
    fields, arrays = _decoded_round()
    retype = None
    if case in ("operand", "opcode"):
        role = data.draw(st.sampled_from(_programs(fields)), label="program")
        num_ops = arrays[f"{role}.opcodes"].shape[0]
        op = data.draw(st.integers(0, num_ops - 1), label="op")
        if case == "opcode":
            arrays[f"{role}.opcodes"][op] = data.draw(st.integers(3, 255), label="opcode")
        else:
            own_out = fields[role]["num_slots"] - num_ops + op
            operand = data.draw(st.sampled_from(("a_slots", "b_slots")), label="operand")
            arrays[f"{role}.{operand}"][op] = data.draw(
                st.integers(own_out, own_out + 2 * fields[role]["num_slots"]), label="slot"
            )
    elif case in ("row", "literal"):
        if case == "row":
            names = [name for name, array in arrays.items() if name.endswith("_rows") and array.size]
        else:
            names = ["plan.literal_columns"]
        name = data.draw(st.sampled_from(sorted(names)), label="array")
        index = data.draw(st.integers(0, arrays[name].shape[0] - 1), label="index")
        arrays[name][index] = _out_of_range(data, fields["num_variables"])
    elif case == "length":
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        array = arrays[name]
        if array.size and data.draw(st.booleans(), label="drop"):
            arrays[name] = array[:-1]
        else:
            arrays[name] = np.append(array, array[-1:] if array.size else [0]).astype(array.dtype)
    elif case == "width_groups":
        groups = fields["plan"]["width_groups"]
        how = data.draw(st.sampled_from(("shift", "drop", "repeat", "junk")), label="how")
        index = data.draw(st.integers(0, len(groups) - 1), label="group")
        if how == "shift":
            item = data.draw(st.integers(0, 2), label="item")
            groups[index][item] += data.draw(
                st.integers(-3, 3).filter(bool), label="delta"
            )
        elif how == "drop":
            del groups[index]
        elif how == "repeat":
            groups.insert(index, list(groups[index]))
        else:
            groups[index][data.draw(st.integers(0, 2), label="item")] = data.draw(
                st.sampled_from((1.5, "2", None, True, [1])), label="junk"
            )
    elif case == "wrong_dtype":
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        other = [t for t in (np.bool_, np.uint8, np.int32, np.int64) if arrays[name].dtype != t]
        arrays[name] = arrays[name].astype(data.draw(st.sampled_from(other), label="dtype"))
    else:  # a dtype outside the allowlist, declared in the header
        name = data.draw(st.sampled_from(sorted(arrays)), label="array")
        retype = (name, data.draw(st.sampled_from(("<f4", "<f8", "<u4", "<i2", "|O", "<U1", "|V4", "<c8")), label="dtype"))
    blob = encode_entry(KIND_ROUND, signature, FlatPayload(fields, arrays))
    if retype is not None:
        name, dtype = retype
        blob = _rewrite(blob, lambda header: header["arrays"][name].__setitem__(0, dtype))
    return blob


STRUCTURAL_CASES = (
    "operand",
    "opcode",
    "row",
    "literal",
    "length",
    "width_groups",
    "wrong_dtype",
    "disallowed_dtype",
)


@settings(max_examples=160, deadline=None)
@given(case=st.sampled_from(STRUCTURAL_CASES), data=st.data())
def test_structurally_invalid_round_is_a_miss(case, data):
    signature, _, cold_rows = _pristine()
    blob = _broken_round(case, data)
    # The container checks pass (the checksum is valid) ...
    entry = verify_entry(bytearray(blob), kind=KIND_ROUND) if case != "disallowed_dtype" else None
    # ... but the schema rejects the entry before anything can run it.
    with pytest.raises(StoreFormatError):
        decode_round(entry or verify_entry(bytearray(blob), kind=KIND_ROUND))
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, KIND_ROUND, blob)
        artifact = load_sampling_artifact(store, signature)
        assert artifact is not None and artifact.source == "store"
        assert store.counters()["corrupt"] == 1
        np.testing.assert_array_equal(_rows(artifact), cold_rows)
        # The round was rebuilt from the transform and written back valid.
        assert store.get(KIND_ROUND, signature) is not None


def test_reencoded_round_without_mutation_is_a_hit():
    # The harness itself: decode, re-encode, and the entry still serves.
    signature, _, cold_rows = _pristine()
    fields, arrays = _decoded_round()
    blob = encode_entry(KIND_ROUND, signature, FlatPayload(fields, arrays))
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, KIND_ROUND, blob)
        artifact = load_sampling_artifact(store, signature)
        assert store.counters()["corrupt"] == 0 and artifact.pending is not None
        np.testing.assert_array_equal(_rows(artifact), cold_rows)


def test_round_leaving_a_row_unwritten_is_a_miss(tmp_path):
    # x3 occurs only in a tautology; a round without its free row (what a v3
    # build wrote) passes every range and length check but must not serve.
    formula = CNF([[1, 2], [3, -3]], num_variables=3)
    artifact = build_artifact(formula)
    store = ArtifactStore(tmp_path)
    assert persist_artifact(store, artifact)
    path = store.object_path(KIND_ROUND, artifact.signature)
    flat = verify_entry(bytearray(path.read_bytes()), kind=KIND_ROUND).decode()
    arrays = {name: array.copy() for name, array in flat.arrays.items()}
    assert arrays["free_rows"].tolist() == [2]
    arrays["free_rows"] = arrays["free_rows"][:0]
    blob = encode_entry(KIND_ROUND, artifact.signature, FlatPayload(flat.fields, arrays))
    with pytest.raises(StoreFormatError, match="exactly once"):
        decode_round(verify_entry(bytearray(blob), kind=KIND_ROUND))
    path.write_bytes(blob)
    reader = ArtifactStore(tmp_path)
    loaded = load_sampling_artifact(reader, artifact.signature)
    assert reader.counters()["corrupt"] == 1
    assert loaded.round.free_rows.tolist() == [2]


def test_v2_round_entry_is_a_clean_miss(tmp_path):
    # Format v2 pickled the round; such an entry, even at the current path, is
    # rejected from its prelude and never unpickled.
    signature, _, cold_rows = _pristine()
    artifact = build_artifact(_fig1())
    blob = bytearray(
        encode_entry(KIND_ROUND, signature, {"round": artifact.round, "plan": artifact.plan})
    )
    struct.pack_into("<H", blob, 4, 2)
    store = _seeded_store(tmp_path, KIND_ROUND, bytes(blob))
    loaded = load_sampling_artifact(store, signature)
    assert store.counters()["corrupt"] == 1
    np.testing.assert_array_equal(_rows(loaded), cold_rows)


def test_v2_store_directory_is_never_read(tmp_path):
    signature, entries, _ = _pristine()
    for kind, data in entries.items():
        path = tmp_path / "v2" / "objects" / kind / signature[:2] / f"{signature}.bin"
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
    store = ArtifactStore(tmp_path)
    assert load_sampling_artifact(store, signature) is None
    assert store.counters()["corrupt"] == 0
    assert (tmp_path / "v2" / "objects" / KIND_ROUND).exists()
