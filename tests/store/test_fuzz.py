"""Store readers under byte flips, truncations and structural mutations.

Every mutated entry must either be a miss — quarantined and rebuilt — or
load as the exact artifact.  Nothing may raise out of ``ArtifactStore.get``
or a load; the deferred decode of a ``transform`` entry, which a hit does
not read, raises only :class:`StoreFormatError`.  No mutation may yield a
wrong artifact: the fixed-seed rows always equal a cold build's.

A checksum only catches accidents, so both entry kinds are also fuzzed
structurally: their decoded fields and arrays are mutated and re-encoded
with a *valid* checksum.  The ``round`` entry is mutated into something the
C kernels or the row maps must never run (an operand reading its own or a
later slot, an unknown opcode, a row or literal column out of range, a
length that disagrees, broken width groups, a wrong or disallowed dtype);
the ``transform`` entry has every array and every field broken (a length,
a dtype, a value out of range, a child or fanin pointing forward, an
expression not in constructor form, a gate of the wrong arity, junk
fields).  Each must be rejected by the schema and served as a miss, and
any in-range overwrite of any array element either is a miss or decodes —
never another exception.
"""

from __future__ import annotations

import functools
import json
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf.delta import ClauseDelta
from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNF
from repro.core.config import SamplerConfig
from repro.core.sampler import GradientSATSampler
from repro.core.transform import retransform
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
from repro.store.schema import decode_round, decode_transform
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
        # A hit samples from the round alone: a mutated round is rebuilt from
        # the transform, and a mutated transform is not read yet.
        assert not built and artifact.source == "store"
        np.testing.assert_array_equal(_rows(artifact), cold_rows)
        try:
            formula, transform = artifact.formula, artifact.transform
        except StoreFormatError:
            assert kind == KIND_TRANSFORM  # the deferred read caught it
        else:
            assert formula.clauses == _fig1().clauses
            assert transform.num_variables == _fig1().num_variables
        quarantined = list((store.version_root / "quarantine").glob("*"))
        if store.counters()["corrupt"]:
            # A miss: the mutated bytes were set aside, and the next lookup
            # finds the round rebuilt or builds the transform afresh.
            assert [path.read_bytes() for path in quarantined] == [mutated]
            _, rebuilt = ArtifactCache(store=ArtifactStore(directory)).get_or_build(
                formula=_fig1(), signature=signature
            )
            assert rebuilt == (kind == KIND_TRANSFORM)
            fresh = ArtifactStore(directory)
            assert load_sampling_artifact(fresh, signature) is not None
            assert fresh.counters()["corrupt"] == 0
        else:
            assert not quarantined


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


def test_transform_corrupted_after_a_hit_is_caught_at_decode(tmp_path):
    signature, entries, cold_rows = _pristine()
    store = _seeded_store(tmp_path, None, b"")
    artifact = load_sampling_artifact(store, signature)
    assert artifact is not None and artifact.pending is not None
    path = store.object_path(KIND_TRANSFORM, signature)
    damaged = bytearray(path.read_bytes())
    damaged[len(damaged) // 2] ^= 0xFF
    path.write_bytes(bytes(damaged))
    # The hit read only the round, so its rows are unaffected; the transform
    # is read and verified at its first decode, which catches the damage.
    np.testing.assert_array_equal(_rows(artifact), cold_rows)
    with pytest.raises(StoreFormatError):
        artifact.formula
    with pytest.raises(StoreFormatError):
        artifact.transform  # decoded at most once: no second read
    assert store.counters()["corrupt"] == 1
    assert not store.contains(KIND_TRANSFORM, signature)  # quarantined


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
    # Format v2 pickled the round; an entry stamped with an older container
    # version, even at the current path, is rejected from its prelude.
    signature, entries, cold_rows = _pristine()
    blob = bytearray(entries[KIND_ROUND])
    struct.pack_into("<H", blob, 4, 2)
    store = _seeded_store(tmp_path, KIND_ROUND, bytes(blob))
    loaded = load_sampling_artifact(store, signature)
    assert store.counters()["corrupt"] == 1
    np.testing.assert_array_equal(_rows(loaded), cold_rows)


def test_v4_transform_entry_is_a_clean_miss(tmp_path):
    # Format v4 pickled the transform.  Such an entry is rejected from its
    # prelude: a hit whose round is fine still samples, and the first decode
    # of the transform is a quarantined miss that never unpickles.
    signature, entries, cold_rows = _pristine()
    blob = bytearray(entries[KIND_TRANSFORM])
    struct.pack_into("<H", blob, 4, 4)
    store = _seeded_store(tmp_path, KIND_TRANSFORM, bytes(blob))
    artifact = load_sampling_artifact(store, signature)
    np.testing.assert_array_equal(_rows(artifact), cold_rows)
    with pytest.raises(StoreFormatError):
        artifact.transform
    assert store.counters()["corrupt"] == 1
    assert load_sampling_artifact(store, signature) is None  # quarantined


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


def test_v5_store_directory_keyed_by_v1_signatures_is_never_read(tmp_path):
    # Format v5 keyed entries by version 1 signatures (a hash of the clause
    # text).  Its directory is never read: not under the formula's version 1
    # key, nor under its version 2 key.  Moved to the current path, a v5
    # round is rejected from its prelude and rebuilt from the transform.
    from tests.oracles.signatures import formula_signature_v1

    signature, entries, cold_rows = _pristine()
    v1 = formula_signature_v1(_fig1())
    assert v1 != signature
    for kind, data in entries.items():
        blob = bytearray(data)
        struct.pack_into("<H", blob, 4, 5)
        for key in (v1, signature):
            path = tmp_path / "v5" / "objects" / kind / key[:2] / f"{key}.bin"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(blob))
    store = ArtifactStore(tmp_path)
    assert load_sampling_artifact(store, signature) is None
    assert load_sampling_artifact(store, v1) is None
    assert store.counters()["corrupt"] == 0

    blob = bytearray(entries[KIND_ROUND])
    struct.pack_into("<H", blob, 4, 5)
    store = _seeded_store(tmp_path / "current", KIND_ROUND, bytes(blob))
    loaded = load_sampling_artifact(store, signature)
    assert store.counters()["corrupt"] == 1
    np.testing.assert_array_equal(_rows(loaded), cold_rows)


# -- structural mutations of the transform entry ------------------------------------------
def _decoded_transform():
    """Writable copies of the pristine transform entry's fields and arrays."""
    _, entries, _ = _pristine()
    flat = verify_entry(bytearray(entries[KIND_TRANSFORM]), kind=KIND_TRANSFORM).decode()
    fields = json.loads(json.dumps(flat.fields))
    return fields, {name: array.copy() for name, array in flat.arrays.items()}


def _transform_blob(fields, arrays) -> bytes:
    return encode_entry(KIND_TRANSFORM, _pristine()[0], FlatPayload(fields, arrays))


def _owners(arrays, offsets: str) -> np.ndarray:
    """The row each CSR value under ``offsets`` belongs to."""
    bounds = arrays[offsets]
    return np.repeat(np.arange(bounds.size - 1), np.diff(bounds))


def _broken_transform(case: str, data) -> bytes:
    """A transform entry broken the way ``case`` names, with a valid checksum."""
    fields, arrays = _decoded_transform()
    names = sorted(arrays)
    if case == "drop":
        # Removing the first element (row) of any array breaks a length, an
        # offset, a stats total or the checkpoints' start.
        name = data.draw(st.sampled_from(names), label="array")
        arrays[name] = arrays[name][1:]
    elif case == "append":
        name = data.draw(st.sampled_from(names), label="array")
        array = arrays[name]
        arrays[name] = np.concatenate((array, array[-1:])).astype(array.dtype)
    elif case == "wrong_dtype":
        name = data.draw(st.sampled_from(names), label="array")
        other = [t for t in (np.bool_, np.uint8, np.int32, np.int64) if arrays[name].dtype != t]
        arrays[name] = arrays[name].astype(data.draw(st.sampled_from(other), label="dtype"))
    elif case == "wrong_shape":
        name = data.draw(st.sampled_from(names), label="array")
        array = arrays[name]
        arrays[name] = array.reshape(-1) if array.ndim == 2 else array.reshape(1, -1)
    elif case == "out_of_range":
        num_variables = fields["formula"]["num_variables"]
        num_nodes = arrays["expr.opcodes"].size
        invalid = {
            "formula.literals": (0, num_variables + 1, -num_variables - 1),
            "expr.opcodes": (7, 255),
            "circuit.types": (11, 255),
            "definitions.variables": (0, -1, num_variables + 1),
            "primary_inputs": (0, -1, num_variables + 1),
            "definitions.roots": (-1, num_nodes),
            "constraints.roots": (-1, num_nodes),
            "expr.children": "expr.child_offsets",
            "circuit.fanins": "circuit.fanin_offsets",
        }
        name = data.draw(st.sampled_from(sorted(invalid)), label="array")
        index = data.draw(st.integers(0, arrays[name].size - 1), label="index")
        choices = invalid[name]
        if isinstance(choices, str):  # point to itself, to a later row or before 0
            owner = int(_owners(arrays, choices)[index])
            choices = (-1, owner, owner + 1)
        arrays[name][index] = data.draw(st.sampled_from(choices), label="value")
    elif case == "offsets":
        name = data.draw(
            st.sampled_from(("formula.offsets", "expr.child_offsets", "circuit.fanin_offsets")),
            label="array",
        )
        array = arrays[name]
        index = data.draw(st.integers(0, array.size - 1), label="index")
        array[index] = data.draw(st.sampled_from((-1, int(array[-1]) + 1)), label="offset")
    elif case == "checkpoint":
        table = arrays["checkpoints"]
        row = data.draw(st.integers(0, table.shape[0] - 1), label="row")
        column = data.draw(st.integers(0, 8), label="column")
        table[row, column] = data.draw(
            st.sampled_from((-1, 2) if column == 8 else (-1, 10**6)), label="value"
        )
    elif case == "not_canonical":
        opcodes, bounds = arrays["expr.opcodes"], arrays["expr.child_offsets"]
        children = arrays["expr.children"]
        nary = [i for i in range(opcodes.size) if opcodes[i] >= 4]
        node = data.draw(st.sampled_from(nary), label="node")
        # Repeat the node's first operand: the constructor folds it away.
        children[bounds[node] + 1] = children[bounds[node]]
    elif case == "gate_arity":
        types = arrays["circuit.types"]
        unary = [i for i in range(types.size) if types[i] in (3, 4)]
        types[data.draw(st.sampled_from(unary), label="gate")] = data.draw(
            st.sampled_from((0, 5, 9)), label="type"
        )
    elif case == "gate_names":
        gate_names = fields["circuit"]["gate_names"].split(" ")[:-1]
        how = data.draw(st.sampled_from(("repeat", "drop", "unterminated", "empty")), label="how")
        if how == "repeat":
            gate_names[-1] = gate_names[0]
        elif how == "drop":
            del gate_names[-1]
        joined = "".join(f"{name} " for name in gate_names)
        broken = {"unterminated": joined[:-1], "empty": ""}
        fields["circuit"]["gate_names"] = broken.get(how, joined)
    else:  # junk in a field
        section, key = data.draw(
            st.sampled_from(
                [("formula", key) for key in ("name", "comments", "num_variables")]
                + [("circuit", key) for key in ("name", "topological", "gate_names")]
                + [("stats", key) for key in sorted(fields["stats"])]
                + [(None, key) for key in ("formula", "circuit", "stats")]
            ),
            label="field",
        )
        valid = {"name": str, "topological": bool, "seconds": float}.get(key, ())
        junk = [None, -1, 1.5, "x", [1], {"a": 1}, True]
        if key == "num_variables":
            junk.append(2**40)  # beyond the int32 literals
        junk = data.draw(
            st.sampled_from([j for j in junk if not isinstance(j, valid)]), label="junk"
        )
        target = fields if section is None else fields[section]
        if data.draw(st.booleans(), label="delete"):
            del target[key]
        else:
            target[key] = junk
    return _transform_blob(fields, arrays)


TRANSFORM_CASES = (
    "drop",
    "append",
    "wrong_dtype",
    "wrong_shape",
    "out_of_range",
    "offsets",
    "checkpoint",
    "not_canonical",
    "gate_arity",
    "gate_names",
    "fields",
)


@settings(max_examples=220, deadline=None)
@given(case=st.sampled_from(TRANSFORM_CASES), data=st.data())
def test_structurally_invalid_transform_is_a_miss(case, data):
    blob = _broken_transform(case, data)
    # The container checks pass (the checksum is valid) ...
    entry = verify_entry(bytearray(blob), kind=KIND_TRANSFORM)
    # ... but the schema rejects the entry before any object is built.
    with pytest.raises(StoreFormatError):
        decode_transform(entry)
    # Served, the hit still samples the cold rows, the decode is a
    # quarantined miss, and the next lookup rebuilds the transform.
    signature, _, cold_rows = _pristine()
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, KIND_TRANSFORM, blob)
        artifact = load_sampling_artifact(store, signature)
        np.testing.assert_array_equal(_rows(artifact), cold_rows)
        with pytest.raises(StoreFormatError):
            artifact.transform
        assert store.counters()["corrupt"] == 1
        assert not store.contains(KIND_TRANSFORM, signature)
        _, rebuilt = ArtifactCache(store=ArtifactStore(directory)).get_or_build(
            formula=_fig1(), signature=signature
        )
        assert rebuilt


def test_reencoded_transform_without_mutation_is_the_exact_transform():
    # The harness itself: decode, re-encode, and the entry decodes to the
    # very transform a cold build makes.
    from tests.store.test_transform_schema import assert_same_transform

    signature = _pristine()[0]
    blob = _transform_blob(*_decoded_transform())
    built = build_artifact(_fig1())
    with tempfile.TemporaryDirectory() as directory:
        store = _seeded_store(directory, KIND_TRANSFORM, blob)
        artifact = load_sampling_artifact(store, signature)
        assert artifact.formula == built.formula
        assert_same_transform(artifact.transform, built.transform, timings=False)
        assert store.counters()["corrupt"] == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_in_range_overwrite_is_a_miss_or_decodes(data):
    # Values that pass every range check may still describe another
    # transform; what must never happen is any exception but a miss.
    fields, arrays = _decoded_transform()
    name = data.draw(st.sampled_from(sorted(arrays)), label="array")
    flat = arrays[name].reshape(-1)
    index = data.draw(st.integers(0, flat.size - 1), label="index")
    info = np.iinfo(flat.dtype) if flat.dtype != np.bool_ else None
    low, high = (0, 1) if info is None else (max(info.min, -64), min(info.max, 64))
    flat[index] = data.draw(st.integers(low, high), label="value")
    blob = _transform_blob(fields, arrays)
    try:
        formula, transform = decode_transform(verify_entry(bytearray(blob), kind=KIND_TRANSFORM))
    except StoreFormatError:
        return
    # What decodes is a transform its users can run: a round compiles and
    # an incremental derivation replays from it.
    transform.round_plan
    retransform(transform, ClauseDelta(assume=(1,)))
