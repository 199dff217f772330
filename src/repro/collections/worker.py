"""The collection shard worker: one document-shard replica.

:class:`~repro.collections.service.SearchService` builds one of these per
shard.  Each worker takes its shard's
:class:`~repro.collections.store.DocumentStore` ready-made, a subset of
the authoritative store that shares its parsed documents and postings,
and owns its own algebra engine.  A request program is compiled for its
run and dropped with it (the engine's compile LRU is bypassed): the
front end caches the answer under the request key and scope generation.
A process worker is forked, so it holds a private copy-on-write copy and
parses nothing at boot.  In process mode it runs in the calculus tier's
request loop, :func:`repro.serving.worker.worker_main`, behind the same
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

Ops: ``run`` (evaluate one request program, serialized or as merge
rows), ``put`` / ``delete`` / ``register`` (replica maintenance; the
index patch is per-document, never a rebuild), ``stats``, and the
loop's own ``shutdown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..xdm import ElementNode
from ..xmlio import serialize
from ..xquery import EngineConfig, XQueryEngine, serialize_result
from ..xquery.algebra import StatisticsCatalog
from .store import DocumentStore

__all__ = [
    "CollectionWorker",
    "CollectionWorkerConfig",
    "extract_rows",
    "fulltext_catalog",
    "merge_rows",
]


def fulltext_catalog(store: DocumentStore) -> StatisticsCatalog:
    """A statistics catalog carrying *store*'s full-text estimates."""
    catalog = StatisticsCatalog()
    catalog.set_fulltext(store.fulltext_stats())
    return catalog


def extract_rows(result) -> List[Tuple[int, str, str]]:
    """``(score, uri, serialized fragment)`` merge rows from a result.

    Request programs emit elements carrying ``uri`` and ``score``
    attributes precisely so the scatter/gather merge can re-sort partials
    by the same ``(score desc, uri asc)`` key the per-shard ``ft:search``
    used — making the merged bytes identical to an unsharded run.
    """
    rows: List[Tuple[int, str, str]] = []
    for item in result:
        if not isinstance(item, ElementNode):
            continue
        uri = item.get_attribute("uri") or ""
        score_text = item.get_attribute("score")
        try:
            score = int(score_text) if score_text else 0
        except ValueError:
            score = 0
        rows.append((score, uri, serialize(item)))
    return rows


def merge_rows(
    partials: List[List[Tuple[int, str, str]]], limit: int = 0
) -> str:
    """Merge per-shard rows by ``(score desc, uri asc)`` into one payload."""
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
    #: the shard's documents, sharing the authoritative store's parsed
    #: trees and postings (:meth:`DocumentStore.subset`), with every
    #: collection the tier knows, so a shard holding no member of one
    #: still answers ``()`` instead of FODC0002.
    store: DocumentStore


class CollectionWorker:
    """The in-process half of one worker: replica store + engine."""

    #: the requests the request loop dispatches to methods of this class.
    OPS = ("run", "put", "delete", "register", "stats")

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
        """Evaluate one request program over the shard replica.

        ``payload``: ``source`` (the XQuery text), ``structured`` (True →
        reply with merge rows for scatter/gather, False → the serialized
        result for a single-shard answer), ``key`` (cache/diagnostic key).
        """
        self.runs += 1
        # uncached: the front end caches the answer, not the program.
        compiled = self.engine.compile(payload["source"], use_cache=False)
        result = compiled.run(
            collections=self.store, statistics=self._statistics
        )
        if payload.get("structured"):
            return {"rows": extract_rows(result), "shard": self.shard}
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

    def register(self, payload: Dict) -> Dict:
        """Learn collection prefixes created by a write on another shard.

        A non-owner replica holds no document of the new collection, but
        must *know* it so a scattered read answers ``()``, not FODC0002.
        """
        self.store.register_collections(payload["collections"])
        return {"collections": len(self.store.known_collections())}

    def stats(self, payload: Optional[Dict] = None) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "runs": self.runs,
            "writes": self.writes,
            "errors": self.errors,
            "store": self.store.stats(),
            "compile_cache": self.engine.cache_info(),
        }
