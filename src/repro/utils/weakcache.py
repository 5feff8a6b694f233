"""Cache plumbing shared across subsystems.

Two pieces live here:

* :class:`OwnerRegistry` — a weak registry of cache-owning objects for
  process-wide bulk invalidation.  The engine's compiled-program memo lives
  on each :class:`Circuit` and the CNF evaluation plan on each :class:`CNF`;
  both are invalidated automatically on mutation, but
  :func:`repro.clear_caches` also needs to drop them explicitly across
  the whole process.  Owners are tracked weakly — keyed by ``id`` so
  hashability (which ``CNF`` does not have: it defines ``__eq__`` without
  ``__hash__``) is never assumed — and dead owners unregister themselves via
  the weakref callback.

* :class:`BoundedLRUCache` — a strong, doubly-bounded (entry count *and*
  total bytes) least-recently-used cache.  This is the layer the sampling
  service's formula-keyed artifact cache (:mod:`repro.serve.cache`) sits on:
  compiled artifacts are expensive to rebuild and sized in megabytes, so a
  long-lived worker must bound both how many formulas it keeps warm and how
  much memory they pin.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple


class OwnerRegistry:
    """Id-keyed weak set of objects that currently hold a memoised cache."""

    def __init__(self) -> None:
        self._owners: Dict[int, weakref.ref] = {}

    def register(self, owner: object) -> None:
        """Track ``owner``; a dead owner drops out automatically."""
        key = id(owner)
        self._owners[key] = weakref.ref(
            owner, lambda _ref, key=key: self._owners.pop(key, None)
        )

    def clear(self, invalidate: Callable[[object], None]) -> None:
        """Call ``invalidate`` on every live owner, then forget them all."""
        for reference in list(self._owners.values()):
            owner = reference()
            if owner is not None:
                invalidate(owner)
        self._owners.clear()

    def __len__(self) -> int:
        return len(self._owners)


class BoundedLRUCache:
    """An LRU cache bounded by entry count and by total byte size.

    Each entry carries a caller-supplied byte cost (``nbytes``); inserting
    past either bound evicts least-recently-used entries until both bounds
    hold again.  A single entry larger than ``max_bytes`` is admitted alone
    (the cache would otherwise be useless for it) after evicting everything
    else.  ``on_evict`` is called with ``(key, value)`` for every eviction —
    explicit :meth:`pop`/:meth:`clear` included — so owners can release
    device uploads or unregister side tables.

    Hit/miss/eviction counters are kept because cache *effectiveness* is an
    observable the serving layer reports per worker.
    """

    def __init__(
        self,
        max_entries: int = 32,
        max_bytes: Optional[int] = 256 * 1024 * 1024,
        on_evict: Optional[Callable[[Hashable, object], None]] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._on_evict = on_evict
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used."""
        return iter(self._entries.keys())

    def get(self, key: Hashable):
        """Return the cached value (refreshing recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: object, nbytes: int = 0) -> None:
        """Insert or replace an entry, then evict until both bounds hold."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if key in self._entries:
            self._evict_one(key)
        self._entries[key] = (value, nbytes)
        self.total_bytes += nbytes
        while len(self._entries) > self.max_entries:
            self._evict_lru()
        if self.max_bytes is not None:
            while self.total_bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_lru()

    def pop(self, key: Hashable) -> None:
        """Drop one entry (no-op when absent); counts as an eviction."""
        if key in self._entries:
            self._evict_one(key)

    def clear(self) -> None:
        """Drop every entry (each one reported to ``on_evict``)."""
        for key in list(self._entries.keys()):
            self._evict_one(key)

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: entries, bytes, hits, misses, evictions."""
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # -- internals ----------------------------------------------------------------------
    def _evict_one(self, key: Hashable) -> None:
        value, nbytes = self._entries.pop(key)
        self.total_bytes -= nbytes
        self.evictions += 1
        if self._on_evict is not None:
            self._on_evict(key, value)

    def _evict_lru(self) -> None:
        oldest = next(iter(self._entries))
        self._evict_one(oldest)
