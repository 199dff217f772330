"""The one cache implementation: a thread-safe LRU with hit/miss/race counters.

Every cache on the request path is an :class:`LRU`: the query service's
plan cache, the result cache (:class:`~repro.querycalc.service.results.ResultCache`
subclasses it) and a shard worker's shared-scan cache.  The engine's
compile cache is one too; served plans bypass it, and ``explain``,
docgen and library callers use it.  Each reports one shape, :meth:`LRU.stats`:
``{hits, misses, races, currsize, maxsize}``.

The race rule: :meth:`LRU.get_or_build` builds outside the lock, so two
threads missing on one key may both build it.  The first insert wins and
both callers get its value; the losing build did real work, so it counts
as a miss *and* a race, never as a hit.

``maxsize=None`` never evicts; ``maxsize=0`` stores nothing, so every
lookup is a miss.  ``None`` is not a storable value: :meth:`LRU.get`
returns it for a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional

__all__ = ["LRU"]


class LRU:
    """A lock, an ``OrderedDict`` (oldest first) and three counters."""

    def __init__(self, maxsize: Optional[int] = 128):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.races = 0

    def get(self, key: Hashable):
        """The value under *key* (now the most recent entry), or None."""
        with self._lock:
            value = self._hit(key)
            if value is None:
                self.misses += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store *value* under *key* as the most recent entry."""
        with self._lock:
            self._store(key, value)

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """The value under *key*, else ``build()``'s, stored unless another
        thread stored one first (then that one is returned)."""
        with self._lock:
            value = self._hit(key)
        if value is not None:
            return value
        # build outside the lock: a slow build never blocks other keys.
        value = build()
        with self._lock:
            self.misses += 1
            existing = self._entries.get(key)
            if existing is not None:
                self.races += 1
                self._entries.move_to_end(key)
                return existing
            self._store(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.races = 0

    def stats(self) -> Dict[str, Optional[int]]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "races": self.races,
                "currsize": len(self._entries),
                "maxsize": self.maxsize,
            }

    # -- with the lock held (subclasses extend get/put through these) --------

    def _hit(self, key: Hashable):
        """The value under *key*, counted as a hit, or None (uncounted)."""
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def _store(self, key: Hashable, value) -> None:
        if self.maxsize == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
