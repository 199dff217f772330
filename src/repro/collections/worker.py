"""The collection worker: one replica of the whole document store.

:class:`~repro.collections.service.SearchService` builds one of these per
worker.  Each takes a :class:`~repro.collections.store.DocumentStore`
holding every document, ready-made, and owns its own algebra engine.  A
read goes, whole, to one worker, which answers the serialized result: the
same bytes a one-store run gives, with nothing to merge.  A request
program is compiled for its run and dropped with it (the engine's compile
LRU is bypassed): the front end caches the answer under the request key
and scope generation.  A process worker is forked, so it holds a private
copy-on-write copy of its store and parses nothing at boot.  In process
mode it runs in the calculus tier's request loop,
:func:`repro.serving.worker.worker_main`, behind the same
:class:`~repro.serving.pool.WorkerHandle`: the parent sends ``(op,
req_id, payload)`` and the worker answers ``("ok", req_id, result)`` or
``("err", req_id, QueryError)``.  In thread mode a
:class:`~repro.serving.pool.LocalHandle` calls the same ops in-process.

Failures cross the pipe *classified*: a missing or unparseable document
raises ``FODC0002`` inside the worker, :func:`classify_error` wraps it
into a structured :class:`~repro.querycalc.service.errors.QueryError`,
and the front-end re-raises it as a ``RemoteQueryError`` that still
advertises ``kind="dynamic"`` / ``code="FODC0002"`` — the error taxonomy
does not degrade at the process boundary.

Ops: ``run`` (evaluate one request program), ``put`` / ``delete``
(replica maintenance, which every write sends to every worker; the index
patch is per-document, never a rebuild), ``stats``, and the loop's own
``shutdown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..xquery import EngineConfig, XQueryEngine, serialize_result
from ..xquery.algebra import StatisticsCatalog
from .store import DocumentStore

__all__ = [
    "CollectionWorker",
    "CollectionWorkerConfig",
    "fulltext_catalog",
    "merge_rows",
]


def fulltext_catalog(store: DocumentStore) -> StatisticsCatalog:
    """A statistics catalog carrying *store*'s full-text estimates."""
    catalog = StatisticsCatalog()
    catalog.set_fulltext(store.fulltext_stats())
    return catalog


# No caller in src/; kept because bench/layers.py names it as a trace target.
def merge_rows(
    partials: List[List[Tuple[int, str, str]]], limit: int = 0
) -> str:
    """Merge ``(score, uri, fragment)`` rows by ``(score desc, uri asc)``
    into one payload."""
    merged = sorted(
        (row for rows in partials for row in rows),
        key=lambda row: (-row[0], row[1]),
    )
    if limit:
        merged = merged[:limit]
    return "".join(fragment for _score, _uri, fragment in merged)


@dataclass
class CollectionWorkerConfig:
    """Everything a worker needs to build its replica."""

    shard: int
    #: every document and collection: at first boot the authoritative
    #: store itself, which a forked worker inherits, otherwise
    #: :meth:`DocumentStore.replica`, which shares its parsed trees and
    #: postings.
    store: DocumentStore


class CollectionWorker:
    """The in-process half of one worker: a whole-store replica + engine."""

    #: the requests the request loop dispatches to methods of this class.
    OPS = ("run", "put", "delete", "stats")

    def __init__(self, config: CollectionWorkerConfig):
        self.shard = config.shard
        self.store = config.store
        self.engine = XQueryEngine(EngineConfig(backend="algebra"))
        self.runs = 0
        self.writes = 0
        self.errors = 0
        self._statistics = fulltext_catalog(self.store)

    # -- evaluation --------------------------------------------------------

    def run(self, payload: Dict) -> Dict:
        """Evaluate one request program over the replica.

        ``payload``: ``source`` (the XQuery text) and ``key`` (the
        cache/diagnostic key); the reply holds the serialized result.
        """
        self.runs += 1
        # uncached: the front end caches the answer, not the program.
        compiled = self.engine.compile(payload["source"], use_cache=False)
        result = compiled.run(
            collections=self.store, statistics=self._statistics
        )
        return {"text": serialize_result(result), "shard": self.shard}

    # -- replica maintenance ----------------------------------------------

    def put(self, payload: Dict) -> Dict:
        self.store.put_text(payload["uri"], payload["text"])
        self.writes += 1
        self._statistics = fulltext_catalog(self.store)
        return {"documents": len(self.store)}

    def delete(self, payload: Dict) -> Dict:
        self.store.remove(payload["uri"])
        self.writes += 1
        self._statistics = fulltext_catalog(self.store)
        return {"documents": len(self.store)}

    def stats(self, payload: Optional[Dict] = None) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "runs": self.runs,
            "writes": self.writes,
            "errors": self.errors,
            "store": self.store.stats(),
            "compile_cache": self.engine.cache_info(),
        }
