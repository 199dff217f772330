"""Result values and the result cache.

:class:`BatchItem` is what the service returns per query: a list of live
model nodes (it *is* a list, so existing callers keep working) plus the
serving metadata a robust client needs — the structured
:class:`~repro.querycalc.service.errors.QueryError` if the query failed,
whether the answer came from cache, and the ``fn:trace`` messages the
evaluation emitted.

:class:`ResultCache` is the result cache of both serving front-ends, an
:class:`~repro.lru.LRU` (lock, eviction and counters).  It keys an opaque
value on ``(request key, generation)`` and hands out shallow copies, so a
caller can never mutate an entry.  The calculus
service stores node *ids* (not live node objects) under ``(plan key,
export generation)``: ids survive being handed between threads, and
mapping back through ``model.nodes`` on every hit means a hit can never
resurrect a node that has since been removed.  The search service stores
serialized text under ``(request key, scope generation)``.  Trace
messages are recorded **alongside** the value, so a cached serve replays
the traces a cold run emitted instead of silently eating them the way
the Galax optimizer ate the paper's probes (the E8 story).

Every entry is keyed by a *generation*, a monotonically increasing
mutation counter, so an entry recorded against an older state is never
served again.  Each entry also carries the
:class:`~repro.querycalc.service.deps.DependencySet` of the plans that
stored or hit it.  :meth:`ResultCache.propagate` reads that set when an
update moves the generation, to carry the entry forward (kept or
patched) or drop it; an entry without one is always dropped.  The set is
evicted with its entry, so the cache's size bounds it too.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...lru import LRU
from .errors import QueryError

ResultKey = Tuple[str, int]

#: what the cache returns per key: (value, trace messages).
CachedResult = Tuple[object, Tuple[str, ...]]


class BatchItem(List["ModelNode"]):  # noqa: F821 - forward ref, avoids an import cycle
    """One query's outcome: a node list plus serving metadata.

    Iterating/indexing yields the result nodes (empty when the query
    failed), so code written against the old ``List[ModelNode]`` return
    type keeps working unchanged.
    """

    __slots__ = ("error", "served_from_cache", "traces")

    def __init__(
        self,
        nodes: Iterable = (),
        error: Optional[QueryError] = None,
        served_from_cache: bool = False,
        traces: Sequence[str] = (),
    ):
        super().__init__(nodes)
        self.error = error
        self.served_from_cache = served_from_cache
        self.traces = tuple(traces)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def nodes(self) -> list:
        return list(self)

    def __repr__(self) -> str:
        if self.error is not None:
            return f"<BatchItem error={self.error}>"
        origin = "cache" if self.served_from_cache else "engine"
        return f"<BatchItem {len(self)} node(s) from {origin}>"


class ResultCache(LRU):
    """The LRU of (value, traces, dependency set) keyed by (request key,
    generation), handing out copies and carrying entries across updates."""

    def __init__(self, maxsize: int = 512):
        super().__init__(maxsize)

    def get(self, key: ResultKey, deps=None) -> Optional[CachedResult]:
        """The cached (value, traces), merging the hitting plan's *deps*
        into the entry when two spellings share it."""
        with self._lock:
            entry = self._hit(key)
            if entry is None:
                self.misses += 1
                return None
            value, traces, held = entry
            if deps is not None and held is not None:
                merged = held.merge(deps)
                if merged is not held:
                    self._entries[key] = (value, traces, merged)
            return copy.copy(value), traces

    def put(
        self,
        key: ResultKey,
        value,
        traces: Sequence[str] = (),
        deps=None,
    ) -> None:
        """Store a result with the dependency set of the plan that computed
        it, merged with the set of an entry already stored under *key*
        (an unknown set on either side stays unknown)."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                held = existing[2]
                deps = None if held is None or deps is None else held.merge(deps)
            self._store(key, (copy.copy(value), tuple(traces), deps))

    def propagate(
        self,
        old_generation: int,
        new_generation: int,
        decide,
    ) -> Dict[str, int]:
        """Carry entries of *old_generation* across a model update.

        ``decide(deps, value)`` receives the entry's dependency set
        (``None`` when unknown) and returns ``("keep", None)`` when the
        update provably cannot have changed the answer (the entry is
        re-keyed to *new_generation* verbatim, traces included),
        ``("patch", new_value)`` when inserted/deleted rows were spliced in (traces ride
        along only for keep — patch is only ever chosen for untraced
        plans), or ``("drop", None)``.  Entries of other generations are
        already unservable and are left to age out.
        """
        kept = patched = invalidated = 0
        with self._lock:
            entries = self._entries
            for key in [k for k in entries if k[1] == old_generation]:
                request_key = key[0]
                value, traces, deps = entries.pop(key)
                action, new_value = decide(deps, value)
                if action == "keep":
                    entries[(request_key, new_generation)] = (value, traces, deps)
                    kept += 1
                elif action == "patch":
                    entries[(request_key, new_generation)] = (new_value, traces, deps)
                    patched += 1
                else:
                    invalidated += 1
            self._evict()
        return {"kept": kept, "patched": patched, "invalidated": invalidated}
