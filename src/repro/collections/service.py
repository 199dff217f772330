"""The search front-end: requests, routing, caching and write fan-out.

A :class:`SearchRequest` is the service's little language — ``doc``
fetches, ``collection`` listings, ``search`` hit lists, and ``kwic``
snippet pages — and each request *compiles to an XQuery program* over
the collection builtins (mirroring how the calculus service compiles
queries to XQuery).  The engine is the only evaluator; the service adds
the serving-tier concerns:

* **one worker per read** — every worker holds the whole store, so a
  request goes, whole, to the worker that owns its key
  (:func:`repro.serving.partition.route_query`, the calculus tier's
  router), and that worker's serialized answer is the answer: the same
  bytes a one-store run gives, with nothing to merge;
* **the calculus service's read loop** — :class:`SearchService` extends
  :class:`~repro.querycalc.service.service.FrontEnd`, keyed on
  ``(request key, generation of the touched scope)``, where a ``doc``
  request's scope is its document and anything else's is its collection.
  A read whose scope generation moved while it executed runs again, and
  a write under ``docs/a/`` leaves cached answers about ``notes/`` warm,
  which keeps the E22 95/5 read/write mix warm without a sweep;
* **writes reach every replica** — a write applies to the authoritative
  store, then fans out to every worker concurrently
  (:func:`repro.serving.pool.scatter`);
* **one worker path** — each worker is a
  :class:`~repro.collections.worker.CollectionWorker` reached through the
  serving tier's handles (:mod:`repro.serving.pool`).  ``mode="process"``
  runs the workers as real processes: failures cross back as structured
  ``RemoteQueryError`` (``FODC0002`` included), and a dead or hung worker
  is respawned from the authoritative store.  ``mode="thread"`` holds
  them in-process.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..querycalc.service.plans import QueryPlan
from ..querycalc.service.service import FrontEnd
from ..serving.partition import Route, route_query
from ..serving.pool import LocalHandle, WorkerHandle, boot_workers, scatter, worker_stats
from ..xquery import EngineConfig, XQueryEngine, serialize_result
from .kwic import CHARS_KWIC
from .store import DocumentStore, normalize_collection
from .worker import CollectionWorker, CollectionWorkerConfig, fulltext_catalog

__all__ = ["SearchRequest", "SearchResult", "SearchService"]

REQUEST_KINDS = ("doc", "collection", "search", "kwic")


def _lit(value: str) -> str:
    """An XQuery string literal: ``&`` escapes as ``&amp;``, quotes by
    doubling, so the literal evaluates to *value* exactly."""
    return '"' + value.replace("&", "&amp;").replace('"', '""') + '"'


@dataclass(frozen=True)
class SearchRequest:
    """One request in the service's little language."""

    kind: str
    uri: str = ""
    collection: str = ""
    phrase: str = ""
    width: int = CHARS_KWIC
    limit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; expected one of {REQUEST_KINDS}"
            )

    def key(self) -> str:
        """The normalized cache/diagnostic key."""
        if self.kind == "doc":
            return f"doc:{self.uri}"
        collection = normalize_collection(self.collection)
        if self.kind == "collection":
            return f"collection:{collection}:{self.limit}"
        if self.kind == "search":
            return f"search:{collection}:{self.phrase}:{self.limit}"
        return f"kwic:{collection}:{self.phrase}:{self.width}:{self.limit}"

    def source(self) -> str:
        """The XQuery program this request compiles to.

        Hit elements carry ``uri`` and ``score`` attributes, in the
        ``(score desc, uri asc)`` order ``ft:search`` returns.
        """
        if self.kind == "doc":
            return f"fn:doc({_lit(self.uri)})"
        collection = _lit(normalize_collection(self.collection))
        if self.kind == "collection":
            hits = f"fn:collection({collection})"
            if self.limit:
                hits = f"subsequence({hits}, 1, {self.limit})"
            return (
                f"for $d in {hits}\n"
                "return element member {\n"
                "  attribute uri { ft:uri($d) },\n"
                "  $d\n"
                "}"
            )
        phrase = _lit(self.phrase)
        hits = f"ft:search({collection}, {phrase})"
        if self.limit:
            hits = f"subsequence({hits}, 1, {self.limit})"
        if self.kind == "search":
            return (
                f"for $d in {hits}\n"
                "return element hit {\n"
                "  attribute uri { ft:uri($d) },\n"
                f"  attribute score {{ ft:score($d, {phrase}) }}\n"
                "}"
            )
        return (
            f"for $d in {hits}\n"
            "return element kwic {\n"
            "  attribute uri { ft:uri($d) },\n"
            f"  attribute score {{ ft:score($d, {phrase}) }},\n"
            f"  for $s in ft:kwic($d, {phrase}, {self.width})\n"
            "  return element snippet { $s }\n"
            "}"
        )


@dataclass
class SearchResult:
    """One answered request: payload text plus serving metadata."""

    text: str
    cached: bool
    route: Route
    generation: int


class _WorkerHandle(WorkerHandle):
    """A search-tier worker: the serving tier's respawning handle.

    ``request`` is re-bound in this class body rather than inherited, so
    search round trips keep their own ``collections.worker.request`` span
    in a traced run, separate from the calculus tier's
    ``serving.pool.request``.  A plain alias of the shared class would have
    one method wrapped twice and mix the two tiers' per-layer numbers.
    """

    request = WorkerHandle.request


class SearchService(FrontEnd):
    """Request-level front-end over one authoritative DocumentStore.

    Each of the ``shards`` workers is a :class:`CollectionWorker` holding
    the whole store.  ``mode="process"`` runs each in a real worker
    process; ``mode="thread"`` holds each in-process behind a
    :class:`~repro.serving.pool.LocalHandle`.  Either way the
    authoritative store takes every write first — single-writer,
    shared-nothing readers — and every replica sees the write as a
    per-document index patch, never a rebuild.  Reads run the shared
    :class:`FrontEnd` loop with no deadline, admission bound or faults.
    """

    def __init__(
        self,
        store: DocumentStore,
        shards: int = 1,
        mode: str = "thread",
        result_cache_size: int = 512,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', not {mode!r}")
        super().__init__(result_cache_size)
        self.store = store
        self.shards = max(1, shards)
        self.mode = mode
        self.engine = XQueryEngine(EngineConfig(backend="algebra"))
        #: serializes writers, and is held across a write's replication; a
        #: read snapshots its scope generation under it.
        self._write_lock = threading.Lock()
        #: guards the authoritative store itself: its mutations,
        #: ``evaluate_fresh`` and the replica a worker respawns from.
        #: It cannot be the writer lock, which is held across replication:
        #: a reader respawning a worker needs a boot config while a writer
        #: waits on that worker's handle.
        self._authoritative_lock = threading.Lock()
        #: completed writes; counted under the writer lock.
        self._writes = 0
        #: the first boot forks every process worker with the store itself:
        #: no other thread exists yet to mutate it.
        self._boot_store: Optional[DocumentStore] = store if mode == "process" else None
        handle = _WorkerHandle if mode == "process" else LocalHandle
        self._workers = boot_workers(
            lambda shard: handle(shard, CollectionWorker, partial(self._worker_config, shard)),
            self.shards,
        )
        self._boot_store = None
        self._replicate_pool = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="search-replicate"
        )

    def _worker_config(self, shard: int) -> CollectionWorkerConfig:
        """Worker *shard*'s boot config.  A process worker's first boot
        forks with the authoritative store; a respawn, and every
        thread-mode worker, gets a replica of it built under its lock, so
        a replacement worker comes back with every write.  A replica
        shares the store's parsed documents and postings."""
        if self._boot_store is not None:
            return CollectionWorkerConfig(shard=shard, store=self._boot_store)
        with self._authoritative_lock:
            return CollectionWorkerConfig(shard=shard, store=self.store.replica())

    # -- reads -------------------------------------------------------------

    def scope_generation(self, request: SearchRequest) -> int:
        """The generation of the state this request can observe.

        ``doc`` requests depend only on their document; everything else
        depends on the touched collection.  This is the cache key's
        freshness half: a write bumps exactly the scopes it changed.
        """
        if request.kind == "doc":
            return self.store.document_generation(request.uri)
        return self.store.collection_generation(request.collection)

    def run(self, request: SearchRequest) -> SearchResult:
        """Answer one request through the shared read loop: a read that a
        write to its scope overlapped runs again.  Workers execute outside
        every service lock."""
        text, _, cached, generation = self._serve(request)
        return SearchResult(text, cached, route_query(request.key(), self.shards), generation)

    @property
    def metrics(self) -> Dict[str, int]:
        """The tier's eight counters, read from the shared read counters."""
        reads = self._read_metrics()
        return {
            "requests": reads["queries"],
            "cache_hits": reads["hits"],
            "cache_misses": reads["misses"],
            "executed": reads["executed"],
            "errors": reads["errors"],
            "single": reads["routes"].get("single", 0),
            # every read goes to one worker; bench/workloads.py reads the key.
            "scatter": 0,
            "writes": self._writes,
        }

    def _plan(self, request: SearchRequest) -> QueryPlan:
        return QueryPlan(request.key(), request)

    def _snapshot(self, plan: QueryPlan) -> int:
        """The scope generation, read under the writer lock: a read never
        keys on a write whose replication is still in flight."""
        with self._write_lock:
            return self.scope_generation(plan.query)

    def _generation(self, plan: QueryPlan) -> int:
        return self.scope_generation(plan.query)

    def _execute(self, plan: QueryPlan, deadline) -> Tuple[str, tuple]:
        """One round trip to the worker that owns the request's key."""
        route = route_query(plan.key, self.shards)
        self._route(route.kind)
        payload = {"source": plan.query.source(), "key": plan.key}
        return self._workers[route.shard].request("run", payload)["text"], ()

    def evaluate_fresh(
        self, request: SearchRequest, use_index: Optional[bool] = None
    ) -> str:
        """Bypass cache and workers: one run over the live store.

        ``use_index=False`` is the brute-force parity reference the
        oracle and E22 compare every served byte against.
        """
        with self._authoritative_lock:
            previous = self.store.use_index
            if use_index is not None:
                self.store.use_index = use_index
            try:
                result = self.engine.compile(request.source()).run(
                    collections=self.store, statistics=fulltext_catalog(self.store)
                )
            finally:
                self.store.use_index = previous
            return serialize_result(result)

    # -- writes ------------------------------------------------------------
    # Each holds the writer lock until every replica has applied it (or was
    # respawned from the authoritative store), and counts only on success.

    def put_text(self, uri: str, text: str) -> None:
        """Write one document; replicas patch that document only."""
        self._put(uri, partial(self.store.put_text, uri, text))

    def delete(self, uri: str) -> None:
        with self._write_lock:
            with self._authoritative_lock:
                self.store.remove(uri)
            self._replicate("delete", {"uri": uri})
            self._writes += 1

    def apply_update(self, uri: str, script: str):
        """Run an update-language script against a model-backed document.

        The authoritative store applies it through the incremental
        update/export pipeline; replicas replay the *result* (the
        patched document text), so their index maintenance is the same
        per-document patch.
        """
        return self._put(uri, partial(self.store.apply_update, uri, script))

    def _put(self, uri: str, write):
        """Apply *write* to the authoritative store, then replicate *uri*."""
        with self._write_lock:
            with self._authoritative_lock:
                result = write()
            self._replicate_put(uri)
            self._writes += 1
            return result

    def _replicate_put(self, uri: str) -> None:
        """Send *uri*'s stored text to every replica."""
        self._replicate("put", {"uri": uri, "text": self.store.text_of(uri)})

    def _replicate(self, op: str, payload: dict) -> None:
        """Send one write to every worker.  Every replica is asked even
        when one fails: a process worker whose request failed was
        respawned from the authoritative store, which already holds the
        write."""
        scatter(
            self._replicate_pool,
            [partial(worker.request, op, payload) for worker in self._workers],
        )

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """``metrics``, the shared read shape (``reads``), caches and workers."""
        workers = worker_stats(self._workers)
        return {
            "metrics": self.metrics,
            "reads": self._read_metrics(),
            "mode": self.mode,
            "shards": self.shards,
            "result_cache": self._results.stats()["currsize"],
            "store": self.store.stats(),
            "compile_cache": self.engine.cache_info(),
            "workers": workers,
            "restarts": sum(worker["restarts"] for worker in workers),
        }

    def close(self) -> None:
        """Stop the workers once no write is in flight; safe to call twice."""
        with self._write_lock:
            self._replicate_pool.shutdown(wait=False)
            for worker in self._workers:
                worker.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
