"""Persistent content-addressed artifact store (cross-process warm starts).

The package turns the per-process in-memory artifact cache into a tiered
hierarchy: memory → this store → cold build.  Entries are keyed by the
formula content signature (:func:`repro.core.signatures.formula_signature`),
serialised in a versioned, checksummed binary container
(:mod:`repro.store.format`), written crash-safely and pruned by recency
(:mod:`repro.store.store`), and coordinated across processes with
single-flight build leases so N cold workers pay for one build
(:mod:`repro.store.artifacts`).  A hit decodes only the hot ``round`` entry;
the ``transform`` entry is verified and decoded on demand.
"""

from repro.store.artifacts import (
    ALL_KINDS,
    KIND_ROUND,
    KIND_TRANSFORM,
    fetch_or_build_artifact,
    load_sampling_artifact,
    persist_artifact,
)
from repro.store.format import (
    FORMAT_VERSION,
    StoreFormatError,
    decode_entry,
    encode_entry,
    read_header,
    verify_entry,
)
from repro.store.store import (
    ArtifactStore,
    BuildLease,
    EntryInfo,
    STORE_ENV_VAR,
    default_store_dir,
    resolve_store_dir,
)

__all__ = [
    "ALL_KINDS",
    "ArtifactStore",
    "BuildLease",
    "EntryInfo",
    "FORMAT_VERSION",
    "KIND_ROUND",
    "KIND_TRANSFORM",
    "STORE_ENV_VAR",
    "StoreFormatError",
    "decode_entry",
    "default_store_dir",
    "encode_entry",
    "fetch_or_build_artifact",
    "load_sampling_artifact",
    "persist_artifact",
    "read_header",
    "resolve_store_dir",
    "verify_entry",
]


def open_store(spec: object = None):
    """Open the store named by ``spec`` (see :func:`resolve_store_dir`).

    Returns ``None`` when the spec resolves to "off" — callers treat a
    ``None`` store as the plain build path.
    """
    directory = resolve_store_dir(spec)
    if directory is None:
        return None
    return ArtifactStore(directory)


__all__.append("open_store")
