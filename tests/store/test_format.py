"""The binary entry container: round trips and every rejection path."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.store.format import (
    ALIGNMENT,
    FORMAT_VERSION,
    MAGIC,
    StoreFormatError,
    decode_entry,
    encode_entry,
    read_header,
)

_PRELUDE = struct.Struct("<4sHI")


def _sample_payload():
    return {
        "ints": np.arange(1000, dtype=np.int64),
        "floats": np.linspace(0.0, 1.0, 257, dtype=np.float32),
        "bools": np.array([True, False, True]),
        "nested": {"tuple": (1, "two", 3.0), "empty": np.zeros(0, dtype=np.int32)},
    }


def _rewrite_header(data: bytes, **updates) -> bytes:
    """Re-emit an entry with some header fields replaced (payload untouched)."""
    magic, version, header_length = _PRELUDE.unpack_from(data)
    header = json.loads(data[_PRELUDE.size : _PRELUDE.size + header_length].decode())
    payload_start = -(-(_PRELUDE.size + header_length) // ALIGNMENT) * ALIGNMENT
    payload = data[payload_start:]
    header.update(updates)
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
        assert np.array_equal(restored["ints"], original["ints"])
        assert np.array_equal(restored["floats"], original["floats"])
        assert restored["floats"].dtype == np.float32
        assert np.array_equal(restored["bools"], original["bools"])
        assert restored["nested"]["tuple"] == (1, "two", 3.0)
        assert restored["nested"]["empty"].shape == (0,)

    def test_loaded_arrays_are_writable(self):
        blob = encode_entry("plan", "s", np.arange(16))
        array = decode_entry(bytearray(blob))
        array[0] = 99  # zero-copy views over a bytearray stay writable
        assert array[0] == 99

    def test_array_blobs_are_aligned(self):
        blob = encode_entry("plan", "s", _sample_payload())
        header, payload_start = read_header(blob)
        assert payload_start % ALIGNMENT == 0
        for offset, _length in header["buffers"]:
            assert offset % ALIGNMENT == 0

    def test_header_is_readable_without_unpickling(self):
        blob = encode_entry("transform", "sig456", {"x": np.ones(4)})
        header, _start = read_header(blob)
        assert header["kind"] == "transform"
        assert header["signature"] == "sig456"
        assert header["checksum"].startswith("sha256:")


class TestRejections:
    def test_wrong_kind(self):
        blob = encode_entry("plan", "s", [1, 2])
        with pytest.raises(StoreFormatError, match="kind"):
            decode_entry(bytearray(blob), kind="transform")

    def test_wrong_signature(self):
        blob = encode_entry("plan", "s", [1, 2])
        with pytest.raises(StoreFormatError, match="signature"):
            decode_entry(bytearray(blob), signature="other")

    def test_bad_magic(self):
        blob = bytearray(encode_entry("plan", "s", [1]))
        blob[:4] = b"XXXX"
        with pytest.raises(StoreFormatError, match="magic"):
            decode_entry(blob)

    def test_future_format_version(self):
        blob = bytearray(encode_entry("plan", "s", [1]))
        struct.pack_into("<H", blob, 4, FORMAT_VERSION + 1)
        with pytest.raises(StoreFormatError, match="format"):
            decode_entry(blob)

    def test_truncated_prelude(self):
        with pytest.raises(StoreFormatError, match="short"):
            decode_entry(bytearray(MAGIC))

    def test_truncated_payload(self):
        blob = encode_entry("plan", "s", np.arange(1000))
        with pytest.raises(StoreFormatError, match="truncated"):
            decode_entry(bytearray(blob[: len(blob) - 64]))

    def test_flipped_payload_byte(self):
        blob = bytearray(encode_entry("plan", "s", np.arange(1000)))
        blob[-1] ^= 0xFF
        with pytest.raises(StoreFormatError, match="checksum"):
            decode_entry(blob)

    def test_foreign_endianness(self):
        blob = encode_entry("plan", "s", np.arange(4))
        import sys

        foreign = "big" if sys.byteorder == "little" else "little"
        rewritten = _rewrite_header(blob, byte_order=foreign)
        with pytest.raises(StoreFormatError, match="endian"):
            decode_entry(bytearray(rewritten))

    def test_other_repro_version(self):
        blob = encode_entry("plan", "s", np.arange(4))
        rewritten = _rewrite_header(blob, version="0.0.0-other")
        with pytest.raises(StoreFormatError, match="written by repro"):
            decode_entry(bytearray(rewritten))

    def test_garbage_header_json(self):
        blob = bytearray(encode_entry("plan", "s", [1]))
        blob[_PRELUDE.size] = 0xFF
        with pytest.raises(StoreFormatError):
            decode_entry(blob)

    def test_header_fields_are_checksummed(self):
        # A damaged span that stays inside the payload would re-slice intact
        # bytes into a different (wrong) object; the checksum covers it.
        blob = encode_entry("plan", "s", [np.arange(8), np.arange(8) + 100])
        header, _start = read_header(blob)
        (first, length), (second, _) = header["buffers"]
        rewritten = _rewrite_header(blob, buffers=[[second, length], [first, length]])
        with pytest.raises(StoreFormatError, match="checksum"):
            decode_entry(bytearray(rewritten))

    def test_span_outside_payload(self):
        blob = encode_entry("plan", "s", np.arange(8))
        rewritten = _rewrite_header(blob, buffers=[[0, 10**9]])
        with pytest.raises(StoreFormatError):
            decode_entry(bytearray(rewritten))
