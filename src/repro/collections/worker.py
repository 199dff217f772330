"""The collection worker: the one place a search request runs, in both modes.

:meth:`CollectionWorker.run` compiles a request program on the worker's
own engine (the front end's :class:`~repro.xquery.EngineConfig` with no
compile cache), runs it over the worker's whole
:class:`~repro.collections.store.DocumentStore` and serializes the
answer, which the front end caches under the request key and scope
generation.  :class:`~repro.collections.service.SearchService`
holds one worker over its authoritative store in thread mode, and in
process mode one forked worker per shard of its
:class:`~repro.serving.pool.ProcessPool`, each over a copy-on-write copy
of that store (a respawn boots from :meth:`DocumentStore.replica`), in
the serving tier's request loop,
:func:`repro.serving.worker.worker_main`.

Failures cross the pipe *classified*: a missing or unparseable document
raises ``FODC0002`` inside the worker, the request loop wraps it into the
serving tier's structured error, and the front-end re-raises it as a
``RemoteQueryError`` that still
advertises ``kind="dynamic"`` / ``code="FODC0002"`` — the error taxonomy
does not degrade at the process boundary.

Ops: ``run`` (evaluate one request program), ``put`` / ``delete``
(replica maintenance, which every write sends to every process worker;
the index patch is per-document, never a rebuild), ``stats``, and the
loop's own ``shutdown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..serving.worker import worker_engine
from ..xquery import EngineConfig, serialize_result
from .store import DocumentStore

__all__ = [
    "CollectionWorker",
    "CollectionWorkerConfig",
    "merge_rows",
]


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
    """Everything a worker needs to hold its store."""

    shard: int
    #: every document and collection: the authoritative store itself in
    #: thread mode and at a process worker's first boot (the forked child
    #: inherits it), otherwise :meth:`DocumentStore.replica`, which shares
    #: its parsed trees and postings.
    store: DocumentStore
    #: the front end's engine configuration, which the worker's own
    #: uncached engine copies.
    engine: EngineConfig


class CollectionWorker:
    """One worker: a whole store and an engine."""

    #: the requests the request loop dispatches to methods of this class.
    OPS = ("run", "put", "delete", "stats")

    def __init__(self, config: CollectionWorkerConfig):
        self.shard = config.shard
        self.store = config.store
        self.engine = worker_engine(config.engine)
        self.runs = 0
        self.writes = 0
        self.errors = 0

    # -- evaluation --------------------------------------------------------

    def run(self, payload: Dict) -> Dict:
        """Compile, evaluate and serialize one request program.

        ``payload``: ``source`` (the XQuery text), ``key`` and ``remaining``
        (the budget left, or None); the reply holds the serialized result.
        """
        self.runs += 1
        compiled = self.engine.compile(payload["source"])
        result = compiled.run(collections=self.store, timeout=payload.get("remaining"))
        return {"text": serialize_result(result), "shard": self.shard}

    # -- replica maintenance (process workers) ----------------------------

    def put(self, payload: Dict) -> Dict:
        self.store.put_text(payload["uri"], payload["text"])
        self.writes += 1
        return {"documents": len(self.store)}

    def delete(self, payload: Dict) -> Dict:
        self.store.remove(payload["uri"])
        self.writes += 1
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
