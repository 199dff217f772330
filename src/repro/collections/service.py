"""The search front-end: requests, routing, caching, scatter/gather.

A :class:`SearchRequest` is the service's little language — ``doc``
fetches, ``collection`` listings, ``search`` hit lists, and ``kwic``
snippet pages — and each request *compiles to an XQuery program* over
the collection builtins (mirroring how the calculus service compiles
queries to XQuery).  The engine is the only evaluator; the service adds
the serving-tier concerns:

* **routing with proofs** — uri-addressed ``doc`` requests go to the
  crc32 owner shard, ``collection``/``search``/``kwic`` scatter, and
  every decision carries its reason
  (:func:`repro.serving.partition.route_request`);
* **scatter/gather** — per-shard partials are merge-sorted by
  ``(score desc, uri asc)``, the same key the per-shard ``ft:search``
  ordered by, so sharded bytes equal unsharded bytes;
* **a result cache keyed on collection generation** — the cache key is
  ``(request key, generation of the touched scope)``, where a ``doc``
  request's scope is its document and anything else's is its collection.
  A write under ``docs/a/`` therefore leaves cached answers about
  ``notes/`` warm, which is what keeps the E22 95/5 read/write mix
  warm without an invalidation sweep;
* **one shard path** — each shard is a
  :class:`~repro.collections.worker.CollectionWorker` reached through the
  serving tier's handles (:mod:`repro.serving.pool`), and scatters fan
  out concurrently in both modes.  ``mode="process"`` runs the workers as
  real processes: failures cross back as structured ``RemoteQueryError``
  (``FODC0002`` included), and a dead or hung worker is respawned from
  the authoritative store.  ``mode="thread"`` holds them in-process.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from ..querycalc.service.results import ResultCache
from ..serving.partition import Route, bucket, route_request
from ..serving.pool import LocalHandle, WorkerHandle, boot_workers, scatter, worker_stats
from ..xquery import EngineConfig, XQueryEngine, serialize_result
from .kwic import CHARS_KWIC
from .store import DocumentStore, collection_prefixes, normalize_collection
from .worker import (
    CollectionWorker,
    CollectionWorkerConfig,
    fulltext_catalog,
    merge_rows,
)

__all__ = ["SearchRequest", "SearchResult", "SearchService"]

REQUEST_KINDS = ("doc", "collection", "search", "kwic")


def _lit(value: str) -> str:
    """An XQuery string literal (quotes escape by doubling)."""
    return '"' + value.replace('"', '""') + '"'


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

        Hit elements carry ``uri`` and ``score`` attributes so the
        scatter merge can re-sort partials by the exact key the
        per-shard ``ft:search`` ordered by.
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


class SearchService:
    """Request-level front-end over one authoritative DocumentStore.

    Each shard is a :class:`CollectionWorker` holding the documents whose
    uri buckets to it.  ``mode="process"`` runs each in a real worker
    process; ``mode="thread"`` holds each in-process behind a
    :class:`~repro.serving.pool.LocalHandle`.  Either way the
    authoritative store takes every write first — single-writer,
    shared-nothing readers — and replicas see the write as a
    per-document index patch, never a rebuild.
    """

    def __init__(
        self,
        store: DocumentStore,
        shards: int = 1,
        mode: str = "thread",
        backend: str = "algebra",
        result_cache_size: int = 512,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', not {mode!r}")
        self.store = store
        self.shards = max(1, shards)
        self.mode = mode
        self.backend = backend
        self.engine = XQueryEngine(EngineConfig(backend=backend))
        #: guards service bookkeeping only — result cache, metrics and
        #: ``_settled``.  Never held across an evaluation, so concurrent
        #: reads overlap instead of queueing on the service.
        self._lock = threading.Lock()
        #: serializes writers; entered only through :meth:`_writing`.
        self._write_lock = threading.Lock()
        #: the newest store generation every replica has applied: each
        #: write publishes it when its replication is over.
        self._settled = store.generation
        #: guards the authoritative store itself: its mutations,
        #: ``evaluate_fresh`` and the boot config a worker (re)starts from.
        #: It cannot be the writer lock, which is held across replication:
        #: a reader respawning a worker needs a boot config while a writer
        #: waits on that worker's handle.
        self._authoritative_lock = threading.Lock()
        #: serialized answers keyed on (request key, scope generation).
        self._results = ResultCache(maxsize=result_cache_size)
        self.metrics: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "executed": 0,
            "errors": 0,
            "single": 0,
            "scatter": 0,
            "writes": 0,
        }
        handle = _WorkerHandle if mode == "process" else LocalHandle
        self._workers = boot_workers(
            lambda shard: handle(shard, CollectionWorker, partial(self._worker_config, shard)),
            self.shards,
        )
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="search-scatter"
        )
        self._closed = False

    def _worker_config(self, shard: int) -> CollectionWorkerConfig:
        """Shard *shard*'s boot config, read from the authoritative store at
        first boot and again at every respawn, so a replacement worker
        comes back with every write and registered collection."""
        with self._authoritative_lock:
            store = self.store
            return CollectionWorkerConfig(
                shard=shard,
                shards=self.shards,
                texts=[
                    (uri, store.text_of(uri))
                    for uri in store.uris()
                    if bucket(uri, self.shards) == shard
                ],
                collections=store.known_collections(),
                use_index=store.use_index,
                backend=self.backend,
            )

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
        """Answer one request (cache → route → execute → cache).

        The service lock covers only the cache probe and the post-run
        insert; the evaluation itself runs unlocked, so N clients drive
        N shard workers concurrently instead of queueing behind one
        global lock.

        The answer is cached only if the scope generation it keys on was
        settled at the probe (every replica had applied the write that
        made it) and is unchanged at the insert (no write to the scope
        reached the store meanwhile).  Anything else may have read a
        half-replicated state: it is served, not cached.
        """
        with self._lock:
            self.metrics["requests"] += 1
            generation = self.scope_generation(request)
            route = route_request(request, self.shards)
            key = (request.key(), generation)
            cached = self._results.get(key)
            if cached is not None:
                self.metrics["cache_hits"] += 1
                return SearchResult(cached[0], True, route, generation)
            self.metrics[route.kind] += 1
            settled = generation <= self._settled
        payload = {
            "source": request.source(),
            "structured": route.kind == "scatter",
            "key": request.key(),
        }
        try:
            if route.kind == "single":
                text = self._workers[route.shard].request("run", payload)["text"]
            else:
                replies = scatter(
                    self._scatter_pool,
                    [partial(worker.request, "run", payload) for worker in self._workers],
                )
                text = merge_rows([reply["rows"] for reply in replies], limit=request.limit)
        except Exception:
            with self._lock:
                self.metrics["errors"] += 1
            raise
        with self._lock:
            self.metrics["cache_misses"] += 1
            self.metrics["executed"] += 1
            if settled and self.scope_generation(request) == generation:
                self._results.put(key, text)
            return SearchResult(text, False, route, generation)

    def evaluate_fresh(
        self, request: SearchRequest, use_index: Optional[bool] = None
    ) -> str:
        """Bypass cache and shards: one unsharded run over the live store.

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

    def put_text(self, uri: str, text: str) -> None:
        """Write one document; replicas patch that document only."""
        with self._writing():
            new_prefixes = self._new_prefixes(uri)
            with self._authoritative_lock:
                self.store.put_text(uri, text)
            self._replicate_put(uri, new_prefixes)

    def delete(self, uri: str) -> None:
        with self._writing():
            with self._authoritative_lock:
                self.store.remove(uri)
            self._workers[bucket(uri, self.shards)].request("delete", {"uri": uri})

    def apply_update(self, uri: str, script: str):
        """Run an update-language script against a model-backed document.

        The authoritative store applies it through the incremental
        update/export pipeline; replicas replay the *result* (the
        patched document text), so their index maintenance is the same
        per-document patch.
        """
        with self._writing():
            new_prefixes = self._new_prefixes(uri)
            with self._authoritative_lock:
                result = self.store.apply_update(uri, script)
            self._replicate_put(uri, new_prefixes)
            return result

    @contextmanager
    def _writing(self):
        """One write: serialized with the others, counted if it succeeds.

        However the write ends, every replica has then applied it or been
        respawned from the authoritative store, which holds it; so the
        store's generation is published as settled.
        """
        with self._write_lock:
            written = False
            try:
                yield
                written = True
            finally:
                with self._lock:
                    self._settled = self.store.generation
                    self.metrics["writes"] += written

    def _new_prefixes(self, uri: str) -> List[str]:
        """The collection prefixes this write is about to create."""
        return [
            prefix
            for prefix in collection_prefixes(uri)
            if prefix not in self.store._collection_gens
        ]

    def _replicate_put(self, uri: str, new_prefixes: List[str]) -> None:
        """Patch the owner replica; tell *every* replica about new prefixes.

        Only the owner shard holds the document, but a collection created
        by this write must become *known* tier-wide, or scatter requests
        over it would raise FODC0002 from every non-owner shard.  Every
        replica is asked even when one fails: a process worker whose
        request failed was respawned from the authoritative store, which
        already holds the write.
        """
        owner = bucket(uri, self.shards)
        calls = [
            partial(
                self._workers[owner].request,
                "put",
                {"uri": uri, "text": self.store.text_of(uri)},
            )
        ]
        if new_prefixes:
            calls += [
                partial(worker.request, "register", {"collections": new_prefixes})
                for shard, worker in enumerate(self._workers)
                if shard != owner
            ]
        scatter(self._scatter_pool, calls)

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "metrics": dict(self.metrics),
                "mode": self.mode,
                "shards": self.shards,
                "result_cache": self._results.stats()["currsize"],
                "store": self.store.stats(),
                "compile_cache": self.engine.cache_info(),
            }
        workers = worker_stats(self._workers)
        payload["workers"] = workers
        payload["restarts"] = sum(worker["restarts"] for worker in workers)
        return payload

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._scatter_pool.shutdown(wait=False)
            for worker in self._workers:
                worker.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
