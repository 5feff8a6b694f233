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
``[payload ...]``         64-byte-aligned array blobs
========================  =============================================

The header records everything needed to decide *without decoding anything*
whether the payload is loadable here: the artifact ``kind`` and content
``signature`` it claims to hold, the ``repro`` version that wrote it, the
writer's byte order, and a SHA-256 checksum over the other header fields
and the whole payload (so a damaged span can never re-slice intact bytes).
Any mismatch raises :class:`StoreFormatError`, which the store layer treats
as a cache miss (and quarantines the file) — a corrupt, truncated, foreign
or stale entry can only ever cost a cold build, never a wrong artifact.

Every entry holds a :class:`FlatPayload`: JSON ``fields`` (kept in the
header) and named arrays, each an aligned raw blob described by ``[dtype,
shape, offset]``.  Only the dtypes in :data:`ALLOWED_DTYPES` are accepted,
and decoding makes ``np.frombuffer`` views into the one read buffer —
nothing executes and nothing is copied.  What the fields and arrays of each
entry kind must hold is :mod:`repro.store.schema`'s business, which
validates them before any object is built.

Reading is split in two: :func:`verify_entry` runs every container check
and returns a :class:`VerifiedEntry` still holding the payload bytes, and
:meth:`VerifiedEntry.decode` makes the array views; :func:`decode_entry` is
both steps at once.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

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
#: rows cover every variable row (a v3 entry may leave one unwritten).  v5:
#: the ``transform`` entry is arrays too, and the pickle layout is gone.
#: v6: entries are keyed by version 2 formula signatures (a hash of the
#: formula's CSR arrays), so no v5 entry, keyed by a version 1 signature, is
#: ever read as one.  v7: a compiled program no longer stores a
#: block table (the C kernels, its only reader now, never read one).
FORMAT_VERSION = 7

#: The dtypes an array blob may declare (native byte order).  Any
#: other declaration is rejected before a view is made.
ALLOWED_DTYPES = frozenset(
    np.dtype(dtype).str for dtype in (np.bool_, np.uint8, np.int32, np.int64)
)

#: Alignment of the payload start and of each array blob, in bytes.  64
#: covers every dtype and keeps blobs cache-line/mmap-page friendly.
ALIGNMENT = 64

_PRELUDE = struct.Struct("<4sHI")


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
    """An entry's content: JSON-able ``fields`` plus named arrays."""

    fields: Dict[str, Any]
    arrays: Dict[str, np.ndarray]


def encode_entry(kind: str, signature: str, payload: FlatPayload) -> bytes:
    """Serialise ``payload`` into one self-contained store-entry byte string.

    Raises :class:`TypeError` for anything but a :class:`FlatPayload` whose
    arrays all have an allowed dtype.
    """
    if not isinstance(payload, FlatPayload):
        raise TypeError(f"a store entry holds a FlatPayload, not {type(payload).__name__}")
    arrays = {name: np.ascontiguousarray(array) for name, array in payload.arrays.items()}
    for name, array in arrays.items():
        if array.dtype.str not in ALLOWED_DTYPES:
            raise TypeError(f"array {name!r} has unsupported dtype {array.dtype}")
    # Lay the payload out: each array blob, aligned.
    specs = {}
    cursor = 0
    for name, array in arrays.items():
        specs[name] = [array.dtype.str, list(array.shape), cursor]
        cursor = _align(cursor + array.nbytes)
    payload_length = cursor

    header = {
        "kind": kind,
        "signature": signature,
        "version": _repro_version(),
        "byte_order": sys.byteorder,
        "created": time.time(),
        "payload_length": payload_length,
        "fields": payload.fields,
        "arrays": specs,
    }

    data = bytearray(payload_length)
    for (_dtype, _shape, offset), array in zip(specs.values(), arrays.values()):
        data[offset : offset + array.nbytes] = memoryview(array).cast("B")
    header["checksum"] = _checksum(header, memoryview(data))

    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_start = _align(_PRELUDE.size + len(header_bytes))

    out = io.BytesIO()
    out.write(_PRELUDE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
    out.write(header_bytes)
    out.write(b"\0" * (payload_start - _PRELUDE.size - len(header_bytes)))
    out.write(data)
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
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


#: One declared array of an entry: ``(name, dtype, shape, offset)``.
ArraySpec = Tuple[str, np.dtype, Tuple[int, ...], int]


@dataclass(frozen=True)
class VerifiedEntry:
    """An entry that passed every check of :func:`verify_entry`, not yet decoded.

    Holds a view of the verified payload (which keeps the read buffer alive),
    so later changes to the file on disk cannot affect what it decodes to.
    """

    kind: str
    signature: str
    payload: memoryview
    #: The header's JSON fields.
    fields: Any
    #: The declared arrays, each inside the payload with an allowed dtype.
    array_specs: Tuple[ArraySpec, ...]

    def decode(self) -> FlatPayload:
        """The entry's payload; each array is a zero-copy view into the bytes."""
        arrays = {}
        for name, dtype, shape, offset in self.array_specs:
            count = math.prod(shape)
            if count:
                view = np.frombuffer(self.payload, dtype=dtype, count=count, offset=offset)
            else:
                view = np.empty(0, dtype=dtype)
            arrays[name] = view.reshape(shape)
        return FlatPayload(fields=self.fields, arrays=arrays)


def _natural(value: Any) -> int:
    """``value`` if it is a non-negative JSON integer (``bool`` excluded)."""
    if type(value) is not int or value < 0:
        raise StoreFormatError(f"expected a non-negative integer, got {value!r}")
    return value


def _array_specs(declared: Any, payload_length: int) -> Tuple[ArraySpec, ...]:
    """Validate the ``arrays`` header: allowlisted dtypes, aligned in-payload spans."""
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
    foreign byte order, a different repro/container version, a malformed
    header, an array outside the payload or a disallowed array dtype.
    """
    header, payload_start = read_header(data)
    if kind is not None and header.get("kind") != kind:
        raise StoreFormatError(f"entry holds kind {header.get('kind')!r}, wanted {kind!r}")
    if signature is not None and header.get("signature") != signature:
        raise StoreFormatError(
            f"entry holds signature {header.get('signature')!r}, wanted {signature!r}"
        )
    try:
        payload_length = _natural(header["payload_length"])
        checksum = header["checksum"]
        declared, fields = header["arrays"], header["fields"]
    except KeyError as error:
        raise StoreFormatError(f"malformed header fields: {error}") from error
    if len(data) < payload_start + payload_length:
        raise StoreFormatError(
            f"entry truncated: payload needs {payload_length} bytes, "
            f"{max(0, len(data) - payload_start)} present"
        )
    payload = memoryview(data)[payload_start : payload_start + payload_length]
    if _checksum(header, payload) != checksum:
        raise StoreFormatError("checksum mismatch")
    return VerifiedEntry(
        kind=str(header.get("kind")),
        signature=str(header.get("signature")),
        payload=payload,
        fields=fields,
        array_specs=_array_specs(declared, payload_length),
    )


def decode_entry(
    data: bytes,
    *,
    kind: Optional[str] = None,
    signature: Optional[str] = None,
) -> FlatPayload:
    """Verify and decode one entry: :func:`verify_entry`, then its arrays."""
    return verify_entry(data, kind=kind, signature=signature).decode()
