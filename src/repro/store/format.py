"""The on-disk entry container of the artifact store.

One store entry is one file holding one serialised artifact.  The layout is
a small self-describing header followed by a checksummed payload:

========================  =============================================
bytes                     content
========================  =============================================
``[0, 4)``                magic ``b"RPRO"``
``[4, 6)``                little-endian ``u16`` container format version
``[6, 10)``               little-endian ``u32`` header JSON length ``H``
``[10, 10 + H)``          header JSON (UTF-8)
(padding to 64 bytes)     zeros
``[payload ...]``         pickle bytes, then 64-byte-aligned array blobs
========================  =============================================

The header records everything needed to decide *without unpickling anything*
whether the payload is loadable here: the artifact ``kind`` and content
``signature`` it claims to hold, the ``repro`` version that wrote it, the
writer's byte order, the payload span of the pickle and of every out-of-band
array blob, and a SHA-256 checksum over the other header fields and the
whole payload (so a damaged span can never re-slice intact bytes).  Any
mismatch raises :class:`StoreFormatError`, which the store layer treats as a
cache miss (and quarantines the file) — a corrupt, truncated, foreign or
stale entry can only ever cost a cold build, never a wrong artifact.

Reading is split in two: :func:`verify_entry` runs every check and returns
a :class:`VerifiedEntry` still holding the pickle bytes, and
:meth:`VerifiedEntry.decode` unpickles them.  The store verifies its cold
``transform`` entry on every hit but decodes it only when something other
than a sampling round needs it; :func:`decode_entry` is both steps at once.

Serialisation itself is pickle protocol 5 with *out-of-band buffers*: the
object graph (expression trees, dataclasses, dictionaries) pickles normally,
while every NumPy array is extracted as a raw :class:`pickle.PickleBuffer`
and written as an aligned binary blob — the ``np.save``-style layout that
makes a load one sequential read plus zero-copy ``frombuffer`` views instead
of a byte-by-byte reconstruction.  On read the blobs are wrapped as
``memoryview`` windows into the single read buffer, so a multi-megabyte
compiled artifact materialises in milliseconds.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import struct
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: First bytes of every store entry.
MAGIC = b"RPRO"

#: Container format version.  Bump on any layout or entry-schema change;
#: readers treat a mismatch as a miss, so old and new processes can share one
#: store directory (under different ``v<N>`` roots) without ever mis-parsing.
#: v2: the ``round``/``transform`` entry kinds, and a checksum that covers
#: the header fields as well as the payload.
FORMAT_VERSION = 2

#: Alignment of the payload start and of each array blob, in bytes.  64
#: covers every dtype and keeps blobs cache-line/mmap-page friendly.
ALIGNMENT = 64

_PRELUDE = struct.Struct("<4sHI")

#: Pickle protocol carrying out-of-band buffers (Python >= 3.8).
_PICKLE_PROTOCOL = 5


class StoreFormatError(ValueError):
    """An entry cannot be decoded here (corrupt, truncated, foreign, stale)."""


def _repro_version() -> str:
    from repro import __version__

    return __version__


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _checksum(header: Dict[str, Any], payload: memoryview) -> str:
    """SHA-256 over the header's other fields (canonical JSON) and the payload."""
    fields = {key: value for key, value in header.items() if key != "checksum"}
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
    digest.update(payload)
    return "sha256:" + digest.hexdigest()


def encode_entry(kind: str, signature: str, obj: Any) -> bytes:
    """Serialise ``obj`` into one self-contained store-entry byte string."""
    buffers: List[pickle.PickleBuffer] = []
    pickled = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL, buffer_callback=buffers.append)

    # Lay the payload out: pickle first, then each raw buffer, all aligned.
    spans: List[Tuple[int, int]] = []
    cursor = _align(len(pickled))
    raws: List[memoryview] = []
    for buffer in buffers:
        raw = buffer.raw()
        spans.append((cursor, len(raw)))
        cursor = _align(cursor + len(raw))
        raws.append(raw)
    payload_length = cursor

    header = {
        "kind": kind,
        "signature": signature,
        "version": _repro_version(),
        "byte_order": sys.byteorder,
        "created": time.time(),
        "pickle": [0, len(pickled)],
        "buffers": [list(span) for span in spans],
        "payload_length": payload_length,
    }

    payload = bytearray(payload_length)
    payload[: len(pickled)] = pickled
    for (offset, length), raw in zip(spans, raws):
        payload[offset : offset + length] = raw
    header["checksum"] = _checksum(header, memoryview(payload))

    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_start = _align(_PRELUDE.size + len(header_bytes))

    out = io.BytesIO()
    out.write(_PRELUDE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
    out.write(header_bytes)
    out.write(b"\0" * (payload_start - _PRELUDE.size - len(header_bytes)))
    out.write(payload)
    return out.getvalue()


def read_header(data: bytes) -> Tuple[Dict[str, Any], int]:
    """Parse and sanity-check an entry prelude; returns (header, payload start).

    Checks only what can be checked without touching the payload: magic,
    container format version, header integrity and byte order.
    """
    if len(data) < _PRELUDE.size:
        raise StoreFormatError("entry too short for the container prelude")
    magic, format_version, header_length = _PRELUDE.unpack_from(data)
    if magic != MAGIC:
        raise StoreFormatError(f"bad magic {magic!r}")
    if format_version != FORMAT_VERSION:
        raise StoreFormatError(
            f"container format v{format_version} (this build reads v{FORMAT_VERSION})"
        )
    header_end = _PRELUDE.size + header_length
    if len(data) < header_end:
        raise StoreFormatError("entry truncated inside the header")
    try:
        header = json.loads(data[_PRELUDE.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreFormatError(f"unreadable header: {error}") from error
    if not isinstance(header, dict):
        raise StoreFormatError("header is not an object")
    if header.get("byte_order") != sys.byteorder:
        raise StoreFormatError(
            f"entry written on a {header.get('byte_order')!r}-endian host "
            f"(this host is {sys.byteorder!r}-endian)"
        )
    if header.get("version") != _repro_version():
        raise StoreFormatError(
            f"entry written by repro {header.get('version')!r} "
            f"(this build is {_repro_version()!r})"
        )
    return header, _align(header_end)


@dataclass(frozen=True)
class VerifiedEntry:
    """An entry that passed every check of :func:`verify_entry`, not yet unpickled.

    Holds a view of the verified payload (which keeps the read buffer alive),
    so later changes to the file on disk cannot affect what it decodes to.
    """

    kind: str
    signature: str
    payload: memoryview
    pickle_span: Tuple[int, int]
    buffer_spans: Tuple[Tuple[int, int], ...]

    @property
    def nbytes(self) -> int:
        """Bytes of payload this entry keeps alive until it is decoded."""
        return self.payload.nbytes

    def decode(self) -> Any:
        """Unpickle the payload; array blobs become zero-copy views into it."""
        offset, length = self.pickle_span
        buffers = [self.payload[start : start + size] for start, size in self.buffer_spans]
        try:
            return pickle.loads(self.payload[offset : offset + length], buffers=buffers)
        except Exception as error:  # pickle raises a zoo of types on bad input
            raise StoreFormatError(f"payload does not unpickle: {error}") from error


def verify_entry(
    data: bytes,
    *,
    kind: Optional[str] = None,
    signature: Optional[str] = None,
) -> VerifiedEntry:
    """Check one entry produced by :func:`encode_entry` without unpickling it.

    ``data`` should be a writable buffer (``bytearray``) so the zero-copy
    array views a later :meth:`VerifiedEntry.decode` hands out are writable
    like freshly built arrays; a read-only ``bytes`` works too but yields
    read-only arrays.  Raises :class:`StoreFormatError` on *any*
    inconsistency — wrong kind or signature, truncation, checksum mismatch,
    foreign byte order, or a different repro/container version.
    """
    header, payload_start = read_header(data)
    if kind is not None and header.get("kind") != kind:
        raise StoreFormatError(f"entry holds kind {header.get('kind')!r}, wanted {kind!r}")
    if signature is not None and header.get("signature") != signature:
        raise StoreFormatError(
            f"entry holds signature {header.get('signature')!r}, wanted {signature!r}"
        )
    try:
        payload_length = int(header["payload_length"])
        pickle_offset, pickle_length = (int(v) for v in header["pickle"])
        spans = tuple((int(off), int(length)) for off, length in header["buffers"])
        checksum = header["checksum"]
    except (KeyError, TypeError, ValueError) as error:
        raise StoreFormatError(f"malformed header fields: {error}") from error
    if len(data) < payload_start + payload_length:
        raise StoreFormatError(
            f"entry truncated: payload needs {payload_length} bytes, "
            f"{max(0, len(data) - payload_start)} present"
        )
    payload = memoryview(data)[payload_start : payload_start + payload_length]
    if _checksum(header, payload) != checksum:
        raise StoreFormatError("checksum mismatch")
    for offset, length in spans + ((pickle_offset, pickle_length),):
        if offset < 0 or length < 0 or offset + length > payload_length:
            raise StoreFormatError("buffer span outside the payload")
    return VerifiedEntry(
        kind=str(header.get("kind")),
        signature=str(header.get("signature")),
        payload=payload,
        pickle_span=(pickle_offset, pickle_length),
        buffer_spans=spans,
    )


def decode_entry(
    data: bytes,
    *,
    kind: Optional[str] = None,
    signature: Optional[str] = None,
) -> Any:
    """Verify and deserialise one entry: :func:`verify_entry`, then decode it."""
    return verify_entry(data, kind=kind, signature=signature).decode()
