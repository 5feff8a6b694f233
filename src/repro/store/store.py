"""Persistent, content-addressed artifact store with single-flight builds.

:class:`ArtifactStore` keeps serialised compiled artifacts (see
:mod:`repro.store.format`) under one directory, keyed by ``(kind,
signature)`` where the signature is the formula content hash from
:func:`repro.core.signatures.formula_signature`.  It is the *shared* cache
tier under every worker's in-memory
:class:`~repro.serve.cache.ArtifactCache`: a cold build paid once by any
process warms every other process that shares the directory — across a
worker pool, across service restarts, across machines on a shared
filesystem.

Layout (everything lives under a format-versioned root, so incompatible
builds can share one directory without ever mis-reading each other)::

    <root>/v6/objects/<kind>/<sig[:2]>/<sig>.bin     entries
    <root>/v6/locks/<sig>.lock                       single-flight claims
    <root>/v6/quarantine/                            corrupt entries

(``v6`` is :data:`~repro.store.format.FORMAT_VERSION`; entries an older
format wrote stay under their own root and are never read.)

Guarantees:

* **crash-safe writes** — entries are written to a temp file in the target
  directory, fsynced, then atomically ``os.replace``d into place; a reader
  never observes a half-written entry;
* **verified reads** — :meth:`ArtifactStore.get` re-checks the container
  header and the checksum, then decodes the entry by its kind's schema
  (:mod:`repro.store.schema`), which validates every field before any
  object is built; a corrupt/truncated/foreign/stale entry, or one that
  fails validation, is moved to ``quarantine/`` and reported as a miss,
  never raised to the caller;
* **graceful degradation** — an unreadable or unwritable directory turns
  the store into a no-op (counted in :meth:`stats`), it never breaks the
  caller: the in-memory tiers and cold builds keep everything working;
* **single-flight cold builds** — :meth:`lease` hands out a per-signature
  claim file (``O_CREAT | O_EXCL``); the process that wins it builds while
  every other process waits for the entry to land and then loads it, so N
  concurrent cold starts on one signature cost one build and N-1 fast
  loads.  Claims from dead processes (same host) or older than
  :data:`STALE_LOCK_SECONDS` are broken, so a crashed builder can only ever
  delay its waiters, not deadlock them.
"""

from __future__ import annotations

import errno
import os
import random
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.store import schema
from repro.store.format import (
    FORMAT_VERSION,
    FlatPayload,
    StoreFormatError,
    encode_entry,
    verify_entry,
)
from repro import faults, obs

#: Registered form of :meth:`ArtifactStore.counters` — every per-handle
#: counter bump also lands here, so ``repro-sat cache stats`` and the serve
#: exports read store activity from one registry (:mod:`repro.obs`).
_STORE_OPS = obs.counter(
    "repro_store_ops_total",
    "Persistent artifact-store operations by outcome.",
    labels=("op",),
)

#: Environment variable naming the process-default store directory.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: Claims older than this are considered abandoned (crashed builder on a
#: foreign host); same-host claims are additionally broken as soon as the
#: owning pid is gone.  Builds of the paper's instances run well under this.
STALE_LOCK_SECONDS = 120.0

#: How long a waiter polls for the builder's entry before giving up and
#: building itself (correctness never depends on the wait succeeding).
WAIT_TIMEOUT_SECONDS = 300.0

#: Base poll interval while waiting on another process's build.  Each sleep
#: is jittered to 0.5x-1.5x of this so N waiters released by one publish do
#: not re-check (and hit the filesystem) in lockstep.
_WAIT_POLL_SECONDS = 0.02


def default_store_dir() -> Path:
    """The conventional store location: ``$XDG_CACHE_HOME/repro-sat/store``."""
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro-sat" / "store"


def resolve_store_dir(spec: object = None) -> Optional[Path]:
    """Resolve a store-directory setting to a path, or ``None`` for "off".

    Precedence is decided by the *caller* passing its strongest non-``None``
    layer; this helper only interprets one value:

    * ``None``          — fall back to ``$REPRO_STORE_DIR`` (off when unset);
    * ``False`` / ``"off"`` / ``""`` — explicitly off, env ignored;
    * ``True``          — the conventional :func:`default_store_dir`;
    * a path / string   — that directory.
    """
    if spec is None:
        env = os.environ.get(STORE_ENV_VAR, "")
        if not env or env.lower() == "off":
            return None
        return Path(env)
    if spec is False or spec == "" or (isinstance(spec, str) and spec.lower() == "off"):
        return None
    if spec is True:
        return default_store_dir()
    return Path(os.fspath(spec))


@dataclass(frozen=True)
class EntryInfo:
    """One entry as seen by :meth:`ArtifactStore.entries` (no payload read)."""

    kind: str
    signature: str
    path: Path
    nbytes: int
    mtime: float


class ArtifactStore:
    """Directory-backed artifact store (see the module docstring)."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(os.fspath(root))
        self._counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "write_errors": 0,
            "corrupt": 0,
            "lease_waits": 0,
            "lease_wait_hits": 0,
            # Lease failure modes (previously silent): a stale claim broken
            # by acquire/wait/sweep, and a waiter that gave up and fell back
            # to a local build.
            "lease_broken": 0,
            "lease_wait_timeouts": 0,
            # ``transform`` entries that verified and went on to be decoded.
            # A store hit reads only the ``round`` entry, so a pure sampling
            # workload keeps this at 0.
            "transform_decodes": 0,
        }
        # After the first failed write the store stops attempting writes (an
        # unwritable directory would otherwise pay a temp-file round trip on
        # every build); reads keep going — the directory may be read-only on
        # purpose (e.g. a shared artifact volume).
        self._writes_disabled = False

    def _count(self, key: str) -> None:
        """Bump one counter in the per-handle dict *and* the shared registry."""
        self._counters[key] += 1
        _STORE_OPS.inc(1.0, key)

    # -- paths --------------------------------------------------------------------------
    @property
    def version_root(self) -> Path:
        """The format-versioned directory all state lives under."""
        return self.root / f"v{FORMAT_VERSION}"

    def object_path(self, kind: str, signature: str) -> Path:
        """Where the entry for ``(kind, signature)`` lives (may not exist)."""
        return self.version_root / "objects" / kind / signature[:2] / f"{signature}.bin"

    def lock_path(self, signature: str) -> Path:
        """The single-flight claim file for ``signature``."""
        return self.version_root / "locks" / f"{signature}.lock"

    # -- reads --------------------------------------------------------------------------
    def contains(self, kind: str, signature: str) -> bool:
        """Whether an entry file exists (no verification)."""
        return self.object_path(kind, signature).exists()

    def touch(self, kind: str, signature: str) -> bool:
        """Refresh an entry's recency without reading it; whether it exists."""
        path = self.object_path(kind, signature)
        if not path.exists():
            return False
        self._touch(path)
        return True

    def get(self, kind: str, signature: str) -> Optional[Any]:
        """Load, verify and decode one entry by its kind's schema.

        Any failure is a miss, never an error.  A present-but-unloadable
        entry (corrupt, truncated, foreign byte order, other repro version,
        or one that fails its schema's validation) is quarantined so it is
        not re-read on every subsequent miss.  A hit refreshes the entry's
        recency.
        """
        path = self.object_path(kind, signature)
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            self._count("misses")
            return None
        try:
            entry = verify_entry(data, kind=kind, signature=signature)
            if kind == schema.KIND_TRANSFORM:
                self._count("transform_decodes")
            loaded = schema.decode(entry)
        except StoreFormatError:
            self._count("corrupt")
            self._count("misses")
            self._quarantine(path)
            return None
        self._count("hits")
        self._touch(path)
        return loaded

    def _touch(self, path: Path) -> None:
        # Recency for the LRU prune: reads refresh mtime (atime is unreliable
        # under relatime/noatime mounts).  Best effort only.
        try:
            os.utime(path)
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        target = self.version_root / "quarantine" / f"{path.name}.{os.getpid()}.{time.time_ns()}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Read-only store: leave the bad entry; every read rejects it.
            pass

    # -- writes -------------------------------------------------------------------------
    def put(self, kind: str, signature: str, payload: FlatPayload) -> bool:
        """Serialise and atomically publish one entry; ``False`` on failure.

        Failures (unwritable directory, disk full) are counted, never
        raised — the store is an accelerator, not a dependency.
        """
        if self._writes_disabled:
            return False
        path = self.object_path(kind, signature)
        try:
            blob = encode_entry(kind, signature, payload)
        except Exception:
            # An unencodable payload is a programming error upstream, but a
            # cache must not take the build path down with it.
            self._count("write_errors")
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{signature[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError:
            self._count("write_errors")
            self._writes_disabled = True
            return False
        self._count("writes")
        if faults.fire("corrupt") is not None:
            # Deterministic chaos hook (repro.faults): damage the entry we
            # just published.  The next verified read must quarantine it and
            # report a miss — never surface corrupt bytes.
            faults.corrupt_file(path)
        return True

    # -- maintenance --------------------------------------------------------------------
    def entries(self) -> List[EntryInfo]:
        """Every entry file on disk, oldest first (no payloads are read)."""
        objects = self.version_root / "objects"
        found: List[EntryInfo] = []
        if not objects.is_dir():
            return found
        for kind_dir in sorted(objects.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.bin")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append(
                    EntryInfo(
                        kind=kind_dir.name,
                        signature=path.stem,
                        path=path,
                        nbytes=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
        found.sort(key=lambda entry: (entry.mtime, str(entry.path)))
        return found

    def verify(self) -> Tuple[List[EntryInfo], List[Tuple[EntryInfo, str]]]:
        """Checksum-walk and decode every entry; returns ``(intact, [(bad, reason), ...])``.

        Every entry must also pass its kind's schema validation.

        Bad entries are left in place — ``repro-sat cache verify`` reports,
        it does not mutate; reads quarantine lazily on access.
        """
        intact: List[EntryInfo] = []
        bad: List[Tuple[EntryInfo, str]] = []
        for entry in self.entries():
            try:
                data = bytearray(entry.path.read_bytes())
                schema.decode(verify_entry(data, kind=entry.kind, signature=entry.signature))
            except (OSError, StoreFormatError) as error:
                bad.append((entry, str(error)))
            else:
                intact.append(entry)
        return intact, bad

    def prune(self, max_bytes: int) -> List[EntryInfo]:
        """Delete least-recently-used entries until the store fits ``max_bytes``.

        Recency is the entry file's mtime, which :meth:`get` refreshes on
        every hit.  Returns the removed entries.  Claim files and quarantine
        are cleaned opportunistically as well.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self._sweep_stale_locks()
        entries = self.entries()
        total = sum(entry.nbytes for entry in entries)
        removed: List[EntryInfo] = []
        for entry in entries:  # oldest first
            if total <= max_bytes:
                break
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            total -= entry.nbytes
            removed.append(entry)
        return removed

    def _sweep_stale_locks(self) -> None:
        locks = self.version_root / "locks"
        if not locks.is_dir():
            return
        for path in locks.glob("*.lock"):
            if _lock_is_stale(path, STALE_LOCK_SECONDS):
                try:
                    os.unlink(path)
                except OSError:
                    continue
                self._count("lease_broken")

    def counters(self) -> Dict[str, int]:
        """This handle's hit/miss/write/corrupt/lease counters (no disk I/O)."""
        return dict(self._counters)

    def stats(self) -> Dict[str, object]:
        """Counters of this handle plus an on-disk entry/byte census."""
        entries = self.entries()
        by_kind: Dict[str, int] = {}
        for entry in entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(entry.nbytes for entry in entries),
            "kinds": by_kind,
            **self._counters,
        }

    # -- single-flight ------------------------------------------------------------------
    def lease(self, signature: str) -> "BuildLease":
        """A single-flight claim for building ``signature`` (see :class:`BuildLease`)."""
        return BuildLease(self, signature)

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"


def _lock_is_stale(path: Path, stale_seconds: float) -> bool:
    """Whether a claim file belongs to a dead or too-old builder."""
    try:
        stat = path.stat()
    except OSError:
        return False  # already gone
    age = time.time() - stat.st_mtime
    if age > stale_seconds:
        return True
    try:
        content = path.read_text().split()
        pid, host = int(content[0]), content[1]
    except (OSError, ValueError, IndexError):
        return age > stale_seconds
    if host != socket.gethostname():
        return False  # cannot probe a foreign host's pid; rely on age
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


class BuildLease:
    """Per-signature build claim coordinating N processes onto one build.

    Usage::

        lease = store.lease(signature)
        if lease.acquire():
            try:
                artifact = build()       # we won: build and publish
                persist(artifact)
            finally:
                lease.release()
        else:
            artifact = lease.wait(load)  # someone else is building: wait
            if artifact is None:         # builder died / wait timed out
                artifact = build()       # correctness never depends on it

    ``acquire`` is ``O_CREAT | O_EXCL`` on the claim file — atomic on every
    POSIX filesystem and on NFS (directory-entry creation).  ``wait`` polls
    ``loader`` (which should read the store) until it returns, the claim
    disappears, the claim goes stale, or the timeout elapses.
    """

    def __init__(self, store: ArtifactStore, signature: str) -> None:
        self._store = store
        self.signature = signature
        self.path = store.lock_path(signature)
        self.owned = False

    def acquire(self) -> bool:
        """Try to claim the build; ``True`` when this process should build."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return True  # unwritable store: no coordination, just build
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and _lock_is_stale(self.path, STALE_LOCK_SECONDS):
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                    else:
                        self._store._count("lease_broken")
                    continue
                return False
            except OSError:
                return True  # claim dir vanished / permissions: just build
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{os.getpid()} {socket.gethostname()} {time.time()}\n")
            self.owned = True
            return True
        return False

    def release(self) -> None:
        """Drop an owned claim (idempotent; never raises)."""
        if not self.owned:
            return
        self.owned = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def wait(
        self,
        loader: Callable[[], Optional[Any]],
        timeout: Optional[float] = None,
    ) -> Optional[Any]:
        """Wait for the claim holder's entry; ``None`` means "build it yourself".

        Polls ``loader`` — typically a store read for the signature — at a
        short interval.  Gives up early when the claim file disappears (the
        builder finished or died; one final load decides which) or goes
        stale, and unconditionally at ``timeout``.
        """
        self._store._count("lease_waits")
        deadline = time.monotonic() + (
            timeout if timeout is not None else WAIT_TIMEOUT_SECONDS
        )
        while True:
            loaded = loader()
            if loaded is not None:
                self._store._count("lease_wait_hits")
                return loaded
            if not self.path.exists():
                # Builder released (or crashed before publishing): one last
                # look, then fall back to building locally.
                loaded = loader()
                if loaded is not None:
                    self._store._count("lease_wait_hits")
                else:
                    self._store._count("lease_wait_timeouts")
                return loaded
            if _lock_is_stale(self.path, STALE_LOCK_SECONDS):
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                else:
                    self._store._count("lease_broken")
                loaded = loader()
                if loaded is not None:
                    self._store._count("lease_wait_hits")
                else:
                    self._store._count("lease_wait_timeouts")
                return loaded
            if time.monotonic() >= deadline:
                self._store._count("lease_wait_timeouts")
                return None
            # Jittered poll: waiters released together must not stampede.
            time.sleep(_WAIT_POLL_SECONDS * (0.5 + random.random()))
