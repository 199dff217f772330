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
* **the shared front end** — :class:`SearchService` extends
  :class:`~repro.serving.frontend.FrontEnd`, where the read loop, mode
  rule, execute step (``timeout``; ``shards * 4`` in flight in process
  mode) and closed rule live, keyed on ``(request key, generation of the
  touched scope)``: a ``doc`` request's scope is its document, anything
  else's its collection.  A read whose scope generation moved while it
  executed runs again, and a write under ``docs/a/`` leaves cached
  answers about ``notes/`` warm (the E22 95/5 mix stays warm);
* **writes** — ``mode="thread"`` runs one
  :class:`~repro.collections.worker.CollectionWorker` in-process over the
  authoritative store, under its lock, and a write applies once, to that
  store.  In ``mode="process"`` a write applies to the authoritative
  store, then goes to every worker concurrently
  (:meth:`~repro.serving.pool.ProcessPool.broadcast`); failures cross
  back as structured ``RemoteQueryError`` (``FODC0002`` included), and a
  dead or hung worker is respawned from the authoritative store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..serving.frontend import FrontEnd, QueryPlan
from ..serving.partition import Route, route_query
from ..serving.pool import WorkerHandle
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
        for name in ("limit", "width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)}")

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

    ``mode="thread"`` holds one :class:`CollectionWorker` over the
    authoritative store and no pool; ``shards`` must then be 1 (or 0,
    which means one).  ``mode="process"`` runs ``shards`` workers, each a
    :class:`CollectionWorker` process holding the whole store.  Either
    way the authoritative store takes every write first, and a process
    worker sees the write as a per-document index patch, never a rebuild.
    Reads take the :class:`FrontEnd` policy: a ``timeout`` per read, and
    in process mode a bound of ``shards * 4`` executions in flight.
    """

    def __init__(
        self,
        store: DocumentStore,
        shards: int = 1,
        mode: str = "thread",
        result_cache_size: int = 512,
    ):
        if shards < 0:
            raise ValueError(f"shards must be >= 0, not {shards}")
        if mode == "thread" and shards > 1:
            raise ValueError(
                f"shards must be 1 in thread mode, not {shards}: "
                "use mode='process' for more workers"
            )
        shards = max(1, shards)
        super().__init__(mode, shards, result_cache_size)
        self.store = store
        self.engine = XQueryEngine(EngineConfig(backend="algebra"))
        #: serializes writers, and is held across a write's replication; a
        #: read snapshots its scope generation under it.
        self._write_lock = threading.Lock()
        #: guards the authoritative store itself: its mutations,
        #: ``evaluate_fresh``, the thread-mode worker's runs and the replica
        #: a process worker respawns from.  It cannot be the writer lock,
        #: which is held across replication: a reader respawning a worker
        #: needs a boot config while a writer waits on that worker's handle.
        self._authoritative_lock = threading.Lock()
        #: completed writes; counted under the writer lock.
        self._writes = 0
        # A process worker's first boot forks with the store itself (no
        # other thread exists yet); a respawn gets a replica built under its
        # lock, which shares the store's parsed documents and postings.
        self._start(
            CollectionWorker,
            lambda shard, state: CollectionWorkerConfig(shard, state, self.engine.config),
            store,
            self._replica,
            shards=shards,
            write_lock=self._write_lock,
            handle=_WorkerHandle,
            lock=self._authoritative_lock,
        )

    def _replica(self) -> DocumentStore:
        with self._authoritative_lock:
            return self.store.replica()

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

    def run(self, request: SearchRequest, timeout: Optional[float] = None) -> SearchResult:
        """Answer one request through the shared read loop: a read that a
        write to its scope overlapped runs again, and a read that outlives
        *timeout* seconds fails with ``XQDY_TIMEOUT``.  No read holds the
        writer lock while it executes: a process worker runs outside every
        service lock, and the thread-mode worker under the store's lock."""
        text, _, cached, generation = self._serve(request, self._deadline(timeout))
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

    @staticmethod
    def _payload(plan: QueryPlan) -> Dict[str, str]:
        return {"source": plan.query.source(), "key": plan.key}

    @staticmethod
    def _decode(reply: Dict) -> Tuple[str, tuple]:
        return reply["text"], ()

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
    # Each holds the writer lock until every process worker has applied it
    # (or was respawned from the authoritative store), and counts only on
    # success.  A closed service refuses a write before the store sees it.
    # Every worker is asked even when one fails: a process worker whose
    # request failed was respawned from the authoritative store, which
    # already holds the write.

    def put_text(self, uri: str, text: str) -> None:
        """Write one document; process workers patch that document only."""
        self._put(uri, partial(self.store.put_text, uri, text))

    def delete(self, uri: str) -> None:
        with self._write_lock:
            self._check_open()
            with self._authoritative_lock:
                self.store.remove(uri)
            if self._pool is not None:
                self._pool.broadcast("delete", {"uri": uri})
            self._writes += 1

    def apply_update(self, uri: str, script: str):
        """Run an update-language script against a model-backed document.

        The authoritative store applies it through the incremental
        update/export pipeline; process workers replay the *result* (the
        patched document text), so their index maintenance is the same
        per-document patch.
        """
        return self._put(uri, partial(self.store.apply_update, uri, script))

    def _put(self, uri: str, write):
        """Apply *write* to the authoritative store, then replicate *uri*."""
        with self._write_lock:
            self._check_open()
            with self._authoritative_lock:
                result = write()
            if self._pool is not None:
                self._replicate_put(uri)
            self._writes += 1
            return result

    def _replicate_put(self, uri: str) -> None:
        """Send *uri*'s stored text to every process worker."""
        self._pool.broadcast("put", {"uri": uri, "text": self.store.text_of(uri)})

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """``metrics``, the shared read shape (``reads``), caches and workers."""
        if self._pool is not None:
            workers, restarts = self._pool.stats(), self._pool.restarts
        else:
            with self._authoritative_lock:
                workers, restarts = [dict(self._worker.stats(), restarts=0)], 0
        return {
            "metrics": self.metrics,
            "reads": self._read_metrics(),
            "mode": self.mode,
            "shards": self.shards,
            "result_cache": self._results.stats()["currsize"],
            "store": self.store.stats(),
            "compile_cache": self.engine.cache_info(),
            "workers": workers,
            "restarts": restarts,
        }
