"""The binary entry container: round trips and every rejection path."""

from __future__ import annotations

import json
import struct
import sys

import numpy as np
import pytest

from repro.store.format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    FlatPayload,
    StoreFormatError,
    _checksum,
    decode_entry,
    encode_entry,
    read_header,
)

_PRELUDE = struct.Struct("<4sHI")


def _sample_payload():
    return FlatPayload(
        fields={"nested": {"list": [1, "two", 3.0]}, "name": "sample"},
        arrays={
            "ints": np.arange(1000, dtype=np.int64),
            "bytes": np.arange(257, dtype=np.uint8),
            "bools": np.array([True, False, True]),
            "table": np.arange(12, dtype=np.int32).reshape(4, 3),
            "empty": np.zeros(0, dtype=np.int32),
        },
    )


def _arrays(*arrays):
    """A payload of unnamed test arrays ``a0``, ``a1``, ..."""
    return FlatPayload(fields={}, arrays={f"a{i}": a for i, a in enumerate(arrays)})


def _rewrite_header(data: bytes, drop=(), rechecksum=False, **updates) -> bytes:
    """Re-emit an entry with some header fields replaced or dropped (payload
    untouched); ``rechecksum`` makes the checksum valid again."""
    magic, version, header_length = _PRELUDE.unpack_from(data)
    header = json.loads(data[_PRELUDE.size : _PRELUDE.size + header_length].decode())
    payload_start = -(-(_PRELUDE.size + header_length) // ALIGNMENT) * ALIGNMENT
    payload = data[payload_start:]
    header.update(updates)
    for key in drop:
        del header[key]
    if rechecksum:
        header["checksum"] = _checksum(header, memoryview(payload))
    header_bytes = json.dumps(header, sort_keys=True).encode()
    new_start = -(-(_PRELUDE.size + len(header_bytes)) // ALIGNMENT) * ALIGNMENT
    return (
        _PRELUDE.pack(magic, version, len(header_bytes))
        + header_bytes
        + b"\0" * (new_start - _PRELUDE.size - len(header_bytes))
        + payload
    )


class TestRoundTrip:
    def test_identity(self):
        original = _sample_payload()
        blob = encode_entry("plan", "sig123", original)
        restored = decode_entry(bytearray(blob), kind="plan", signature="sig123")
        assert restored.fields == original.fields
        assert set(restored.arrays) == set(original.arrays)
        for name, array in original.arrays.items():
            assert restored.arrays[name].dtype == array.dtype
            assert np.array_equal(restored.arrays[name], array)
        assert restored.arrays["table"].shape == (4, 3)
        assert restored.arrays["empty"].shape == (0,)

    def test_loaded_arrays_are_writable(self):
        blob = encode_entry("plan", "s", _arrays(np.arange(16)))
        array = decode_entry(bytearray(blob)).arrays["a0"]
        array[0] = 99  # zero-copy views over a bytearray stay writable
        assert array[0] == 99

    def test_array_blobs_are_aligned(self):
        blob = encode_entry("plan", "s", _sample_payload())
        header, payload_start = read_header(blob)
        assert payload_start % ALIGNMENT == 0
        for _dtype, _shape, offset in header["arrays"].values():
            assert offset % ALIGNMENT == 0

    def test_header_is_readable_without_unpickling(self):
        blob = encode_entry("transform", "sig456", _arrays(np.ones(4, dtype=np.int64)))
        header, _start = read_header(blob)
        assert header["kind"] == "transform"
        assert header["signature"] == "sig456"
        assert header["checksum"].startswith("sha256:")
        assert "layout" not in header and "pickle" not in header

    def test_only_flat_payloads_encode(self):
        for obj in ([1, 2], {"x": np.ones(4)}, np.arange(4), lambda: None):
            with pytest.raises(TypeError):
                encode_entry("plan", "s", obj)
        with pytest.raises(TypeError, match="dtype"):
            encode_entry("plan", "s", _arrays(np.ones(4, dtype=np.float32)))


class TestRejections:
    def test_wrong_kind(self):
        blob = encode_entry("plan", "s", _arrays())
        with pytest.raises(StoreFormatError, match="kind"):
            decode_entry(bytearray(blob), kind="transform")

    def test_wrong_signature(self):
        blob = encode_entry("plan", "s", _arrays())
        with pytest.raises(StoreFormatError, match="signature"):
            decode_entry(bytearray(blob), signature="other")

    def test_bad_magic(self):
        blob = bytearray(encode_entry("plan", "s", _arrays()))
        blob[:4] = b"XXXX"
        with pytest.raises(StoreFormatError, match="magic"):
            decode_entry(blob)

    def test_future_format_version(self):
        blob = bytearray(encode_entry("plan", "s", _arrays()))
        struct.pack_into("<H", blob, 4, FORMAT_VERSION + 1)
        with pytest.raises(StoreFormatError, match="format"):
            decode_entry(blob)

    def test_truncated_prelude(self):
        with pytest.raises(StoreFormatError, match="short"):
            decode_entry(bytearray(MAGIC))

    def test_truncated_payload(self):
        blob = encode_entry("plan", "s", _arrays(np.arange(1000)))
        with pytest.raises(StoreFormatError, match="truncated"):
            decode_entry(bytearray(blob[: len(blob) - 64]))

    def test_flipped_payload_byte(self):
        blob = bytearray(encode_entry("plan", "s", _arrays(np.arange(1000))))
        blob[-1] ^= 0xFF
        with pytest.raises(StoreFormatError, match="checksum"):
            decode_entry(blob)

    def test_foreign_endianness(self):
        blob = encode_entry("plan", "s", _arrays(np.arange(4)))
        foreign = "big" if sys.byteorder == "little" else "little"
        rewritten = _rewrite_header(blob, byte_order=foreign)
        with pytest.raises(StoreFormatError, match="endian"):
            decode_entry(bytearray(rewritten))

    def test_other_repro_version(self):
        blob = encode_entry("plan", "s", _arrays(np.arange(4)))
        rewritten = _rewrite_header(blob, version="0.0.0-other")
        with pytest.raises(StoreFormatError, match="written by repro"):
            decode_entry(bytearray(rewritten))

    def test_garbage_header_json(self):
        blob = bytearray(encode_entry("plan", "s", _arrays()))
        blob[_PRELUDE.size] = 0xFF
        with pytest.raises(StoreFormatError):
            decode_entry(blob)

    def test_deeply_nested_header_json(self):
        header = ("[" * 100_000).encode()
        blob = _PRELUDE.pack(MAGIC, FORMAT_VERSION, len(header)) + header
        with pytest.raises(StoreFormatError, match="unreadable header"):
            decode_entry(bytearray(blob))

    def test_header_fields_are_checksummed(self):
        # A damaged span that stays inside the payload would re-slice intact
        # bytes into a different (wrong) array; the checksum covers it.
        blob = encode_entry("plan", "s", _arrays(np.arange(8), np.arange(8) + 100))
        header, _start = read_header(blob)
        arrays = header["arrays"]
        arrays["a0"][2], arrays["a1"][2] = arrays["a1"][2], arrays["a0"][2]
        rewritten = _rewrite_header(blob, arrays=arrays)
        with pytest.raises(StoreFormatError, match="checksum"):
            decode_entry(bytearray(rewritten))

    def test_span_outside_payload(self):
        blob = encode_entry("plan", "s", _arrays(np.arange(8)))
        header, _start = read_header(blob)
        dtype = header["arrays"]["a0"][0]
        for spec in ([dtype, [8], 10**9], [dtype, [10**9], 0], [dtype, [8], 1]):
            rewritten = _rewrite_header(blob, rechecksum=True, arrays={"a0": spec})
            with pytest.raises(StoreFormatError, match="span outside the payload"):
                decode_entry(bytearray(rewritten))

    def test_old_pickle_layout_is_rejected(self):
        # A v4 ``pickle``-layout header has no field or array table; at the
        # current container version it fails verification before any
        # payload byte is read.
        blob = encode_entry("plan", "s", _arrays(np.arange(8)))
        rewritten = _rewrite_header(
            blob, drop=("arrays", "fields"), layout="pickle", pickle=[0, 8], buffers=[]
        )
        with pytest.raises(StoreFormatError, match="malformed header"):
            decode_entry(bytearray(rewritten))
