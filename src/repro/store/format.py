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
``[payload ...]``         64-byte-aligned blobs (see the two layouts)
========================  =============================================

The header records everything needed to decide *without decoding anything*
whether the payload is loadable here: the artifact ``kind`` and content
``signature`` it claims to hold, the ``repro`` version that wrote it, the
writer's byte order, the payload ``layout`` with the span of every blob,
and a SHA-256 checksum over the other header fields and the whole payload
(so a damaged span can never re-slice intact bytes).  Any mismatch raises
:class:`StoreFormatError`, which the store layer treats as a cache miss (and
quarantines the file) — a corrupt, truncated, foreign or stale entry can
only ever cost a cold build, never a wrong artifact.

An entry has one of two payload layouts:

* ``"arrays"`` — pickle-free: a :class:`FlatPayload` of JSON-able
  ``fields`` (kept in the header) and named arrays, each an aligned raw blob
  described by ``[dtype, shape, offset]``.  Only the dtypes in
  :data:`ALLOWED_DTYPES` are accepted, and decoding makes ``np.frombuffer``
  views into the one read buffer — nothing executes, nothing is copied.
  The store's hot ``round`` entry uses it (:mod:`repro.store.schema`
  validates what the views hold before anything runs them).
* ``"pickle"`` — pickle protocol 5 with *out-of-band buffers*: the object
  graph pickles normally while every NumPy array is written as an aligned
  raw blob and read back as a zero-copy view.  Only the cold ``transform``
  entry (formula, circuit, expressions) still uses it.

Reading is split in two: :func:`verify_entry` runs every check and returns
a :class:`VerifiedEntry` still holding the payload bytes, and
:meth:`VerifiedEntry.decode` turns them into the object (unpickling only a
``"pickle"`` entry).  The store verifies its cold ``transform`` entry on
every hit but decodes it only when something other than a sampling round
needs it; :func:`decode_entry` is both steps at once.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle
import struct
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: First bytes of every store entry.
MAGIC = b"RPRO"

#: Container format version.  Bump on any layout or entry-schema change;
#: readers treat a mismatch as a miss, so old and new processes can share one
#: store directory (under different ``v<N>`` roots) without ever mis-parsing.
#: v2: the ``round``/``transform`` entry kinds, and a checksum that covers
#: the header fields as well as the payload.  v3: the pickle-free
#: ``"arrays"`` layout, used by the ``round`` entry.  v4: free variables are
#: every variable neither an input nor defined, so input, defined and free
#: rows cover every variable row (a v3 entry may leave one unwritten).
FORMAT_VERSION = 4

#: Payload layouts (the header's ``layout`` field).
LAYOUT_ARRAYS = "arrays"
LAYOUT_PICKLE = "pickle"

#: The dtypes an ``"arrays"`` blob may declare (native byte order).  Any
#: other declaration is rejected before a view is made.
ALLOWED_DTYPES = frozenset(
    np.dtype(dtype).str for dtype in (np.bool_, np.uint8, np.int32, np.int64)
)

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


@dataclass(frozen=True)
class FlatPayload:
    """A pickle-free entry: JSON-able ``fields`` plus named arrays."""

    fields: Dict[str, Any]
    arrays: Dict[str, np.ndarray]


def _layout(obj: Any) -> Tuple[Dict[str, Any], List[memoryview], bytes]:
    """``(header layout fields, blobs, leading bytes)`` for ``obj``'s payload."""
    if isinstance(obj, FlatPayload):
        arrays = {name: np.ascontiguousarray(array) for name, array in obj.arrays.items()}
        for name, array in arrays.items():
            if array.dtype.str not in ALLOWED_DTYPES:
                raise TypeError(f"array {name!r} has unsupported dtype {array.dtype}")
        blobs = [memoryview(array).cast("B") for array in arrays.values()]
        specs = {
            name: [array.dtype.str, list(array.shape)] for name, array in arrays.items()
        }
        return {"layout": LAYOUT_ARRAYS, "fields": obj.fields, "arrays": specs}, blobs, b""
    buffers: List[pickle.PickleBuffer] = []
    pickled = pickle.dumps(obj, protocol=_PICKLE_PROTOCOL, buffer_callback=buffers.append)
    blobs = [buffer.raw() for buffer in buffers]
    return {"layout": LAYOUT_PICKLE, "pickle": [0, len(pickled)]}, blobs, pickled


def encode_entry(kind: str, signature: str, obj: Any) -> bytes:
    """Serialise ``obj`` into one self-contained store-entry byte string.

    A :class:`FlatPayload` is written in the pickle-free ``"arrays"``
    layout; anything else is pickled.
    """
    layout, blobs, leading = _layout(obj)
    # Lay the payload out: leading bytes (the pickle) first, then each blob,
    # all aligned.
    spans: List[Tuple[int, int]] = []
    cursor = _align(len(leading))
    for blob in blobs:
        spans.append((cursor, blob.nbytes))
        cursor = _align(cursor + blob.nbytes)
    payload_length = cursor
    if layout["layout"] == LAYOUT_ARRAYS:
        for spec, (offset, _length) in zip(layout["arrays"].values(), spans):
            spec.append(offset)
    else:
        layout["buffers"] = [list(span) for span in spans]

    header = {
        "kind": kind,
        "signature": signature,
        "version": _repro_version(),
        "byte_order": sys.byteorder,
        "created": time.time(),
        "payload_length": payload_length,
        **layout,
    }

    payload = bytearray(payload_length)
    payload[: len(leading)] = leading
    for (offset, length), blob in zip(spans, blobs):
        payload[offset : offset + length] = blob
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


#: One declared array of an ``"arrays"`` entry: ``(name, dtype, shape, offset)``.
ArraySpec = Tuple[str, np.dtype, Tuple[int, ...], int]


@dataclass(frozen=True)
class VerifiedEntry:
    """An entry that passed every check of :func:`verify_entry`, not yet decoded.

    Holds a view of the verified payload (which keeps the read buffer alive),
    so later changes to the file on disk cannot affect what it decodes to.
    """

    kind: str
    signature: str
    #: :data:`LAYOUT_ARRAYS` or :data:`LAYOUT_PICKLE`.
    layout: str
    payload: memoryview
    #: Pickle layout: the pickle stream's span and its out-of-band blobs.
    pickle_span: Tuple[int, int] = (0, 0)
    buffer_spans: Tuple[Tuple[int, int], ...] = ()
    #: Arrays layout: the header fields and the declared arrays.
    fields: Any = None
    array_specs: Tuple[ArraySpec, ...] = ()

    @property
    def nbytes(self) -> int:
        """Bytes of payload this entry keeps alive until it is decoded."""
        return self.payload.nbytes

    def decode(self) -> Any:
        """The entry's object; array blobs become zero-copy views into the payload.

        An ``"arrays"`` entry decodes to a :class:`FlatPayload` without
        unpickling anything; a ``"pickle"`` entry is unpickled.
        """
        if self.layout == LAYOUT_ARRAYS:
            arrays = {}
            for name, dtype, shape, offset in self.array_specs:
                count = math.prod(shape)
                if count:
                    view = np.frombuffer(self.payload, dtype=dtype, count=count, offset=offset)
                else:
                    view = np.empty(0, dtype=dtype)
                arrays[name] = view.reshape(shape)
            return FlatPayload(fields=self.fields, arrays=arrays)
        offset, length = self.pickle_span
        buffers = [self.payload[start : start + size] for start, size in self.buffer_spans]
        try:
            return pickle.loads(self.payload[offset : offset + length], buffers=buffers)
        except Exception as error:  # pickle raises a zoo of types on bad input
            raise StoreFormatError(f"payload does not unpickle: {error}") from error


def _natural(value: Any) -> int:
    """``value`` if it is a non-negative JSON integer (``bool`` excluded)."""
    if type(value) is not int or value < 0:
        raise StoreFormatError(f"expected a non-negative integer, got {value!r}")
    return value


def _array_specs(declared: Any, payload_length: int) -> Tuple[ArraySpec, ...]:
    """Validate an ``"arrays"`` header: allowlisted dtypes, aligned in-payload spans."""
    if not isinstance(declared, dict):
        raise StoreFormatError("arrays header is not an object")
    specs = []
    for name, spec in declared.items():
        if not (isinstance(spec, list) and len(spec) == 3 and isinstance(spec[1], list)):
            raise StoreFormatError(f"array {name!r}: malformed spec {spec!r}")
        dtype_str, shape, offset = spec
        if dtype_str not in ALLOWED_DTYPES:
            raise StoreFormatError(f"array {name!r}: dtype {dtype_str!r} is not allowed")
        dtype = np.dtype(dtype_str)
        shape = tuple(_natural(extent) for extent in shape)
        offset = _natural(offset)
        nbytes = dtype.itemsize * math.prod(shape)
        if offset % ALIGNMENT or offset + nbytes > payload_length:
            raise StoreFormatError(f"array {name!r}: span outside the payload")
        specs.append((name, dtype, shape, offset))
    return tuple(specs)


def verify_entry(
    data: bytes,
    *,
    kind: Optional[str] = None,
    signature: Optional[str] = None,
) -> VerifiedEntry:
    """Check one entry produced by :func:`encode_entry` without decoding it.

    ``data`` should be a writable buffer (``bytearray``) so the zero-copy
    array views a later :meth:`VerifiedEntry.decode` hands out are writable
    like freshly built arrays; a read-only ``bytes`` works too but yields
    read-only arrays.  Raises :class:`StoreFormatError` on *any*
    inconsistency — wrong kind or signature, truncation, checksum mismatch,
    foreign byte order, a different repro/container version, an unknown
    layout, a blob outside the payload or a disallowed array dtype.
    """
    header, payload_start = read_header(data)
    if kind is not None and header.get("kind") != kind:
        raise StoreFormatError(f"entry holds kind {header.get('kind')!r}, wanted {kind!r}")
    if signature is not None and header.get("signature") != signature:
        raise StoreFormatError(
            f"entry holds signature {header.get('signature')!r}, wanted {signature!r}"
        )
    layout = header.get("layout")
    try:
        payload_length = int(header["payload_length"])
        checksum = header["checksum"]
        if layout == LAYOUT_PICKLE:
            pickle_offset, pickle_length = (int(v) for v in header["pickle"])
            spans = tuple((int(off), int(length)) for off, length in header["buffers"])
        elif layout == LAYOUT_ARRAYS:
            declared, fields = header["arrays"], header["fields"]
        else:
            raise StoreFormatError(f"unknown payload layout {layout!r}")
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
    if layout == LAYOUT_ARRAYS:
        return VerifiedEntry(
            kind=str(header.get("kind")),
            signature=str(header.get("signature")),
            layout=layout,
            payload=payload,
            fields=fields,
            array_specs=_array_specs(declared, payload_length),
        )
    for offset, length in spans + ((pickle_offset, pickle_length),):
        if offset < 0 or length < 0 or offset + length > payload_length:
            raise StoreFormatError("buffer span outside the payload")
    return VerifiedEntry(
        kind=str(header.get("kind")),
        signature=str(header.get("signature")),
        layout=layout,
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
