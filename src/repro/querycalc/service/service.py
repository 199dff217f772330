"""The query service: a fault-tolerant serving layer over the XQuery calculus path.

This is the architectural answer to E6 *and* the robustness answer to the
paper's error-handling chapter.  The caching story (PR 3) keeps four
layers warm between requests:

1. a **plan cache**: normalized calculus text → generated XQuery source
   (a shard worker compiles it for each run and keeps no program).
   Every cache here is one :class:`~repro.lru.LRU`, so a plan built by
   two racing threads counts as two misses and one race, never a hit;
2. an **incremental model export**: mutations dirty individual subtrees,
   so the XML document the queries scan is patched, not rebuilt;
3. a **result cache** keyed by (generated source, export generation):
   repeat queries against an unchanged model are a dict hit, and any
   model mutation bumps the generation and silently invalidates every
   stale entry;
4. a **batch API**: :meth:`QueryService.run_batch` serves a whole UI
   refresh worth of queries on a thread pool through the same path as
   :meth:`QueryService.run`, serving each distinct plan once and copying
   its outcome to duplicates.

The robustness layer on top makes failure a first-class outcome instead
of an unhandled exception:

* **per-query error isolation** — a failing job in :meth:`run_batch`
  yields a :class:`~repro.querycalc.service.results.BatchItem` carrying a
  structured :class:`~repro.querycalc.service.errors.QueryError` while
  every sibling completes; metrics always record the whole batch;
* **deadlines** — a wall-clock budget per query (and optionally per
  batch) is threaded down into both engine backends, which check it
  between pipeline stages and raise ``XQDY_TIMEOUT`` cleanly instead of
  hanging a worker;
* **graceful degradation** — an *internal* (non-spec) error from the
  algebra backend is retried once on the treewalk reference backend
  before surfacing (in :meth:`~repro.serving.worker.ShardWorker.run`),
  and counted in ``metrics()["fallbacks"]``;
* **fault injection** — a :class:`~repro.querycalc.service.faults.FaultInjector`
  can fail or stall any pipeline site, which is how the chaos suite and
  the E16 benchmark exercise all of the above.

Engine semantics are untouched: a cold miss runs exactly the code E6
measures, quirks and all.  The service only decides *how often* that
code runs — and, now, what happens when it fails.

The read loop lives in :class:`~repro.serving.frontend.FrontEnd`, which
this service and the search tier's
:class:`~repro.collections.service.SearchService` extend, with the mode
rule, the execute step and ``close``.  It sends this service's ``{key,
source}`` payload, with the budget left, to a
:class:`~repro.serving.worker.ShardWorker`, which compiles it on an
uncached engine of its own, runs it over its backend's export with a
shared-scan cache per export generation, and turns the result into node
ids: one in-process worker over the service's own backend and fault
injector in thread mode, a pool of them in process mode.  The service
keeps the calculus parts: plans, payload, writes and cache maintenance,
the generation the replicas hold, and their refresh and delta counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ...awb.model import Model
from ...awb.xml_io import export_model_text
from ...lru import LRU
from ...serving.frontend import FrontEnd, QueryPlan
from ...serving.partition import route_query
from ...xquery import EngineConfig, XQueryEngine
from ..ast import Query
from ..native import QueryRuntimeError
from ..via_xquery import XQueryCalculusBackend
from .deps import derive_dependencies, patch_result
from .errors import Deadline, QueryError, classify_error
from .faults import FaultInjector
from .plans import normalize_query
from .results import BatchItem


class QueryService(FrontEnd):
    """Serves calculus queries from caches, falling back to the XQuery path.

    A miss runs the paper's preposterously inefficient path: calculus →
    generated XQuery → ``engine`` (the algebra backend's optimized plans by
    default).  The native interpreter,
    :func:`~repro.querycalc.native.run_query`, is the reference the
    service's answers are checked against, not a mode of the service.

    ``default_timeout`` is the per-query wall-clock budget in seconds
    applied when a call does not pass its own; ``fault_injector`` wires a
    :class:`~repro.querycalc.service.faults.FaultInjector` into the
    pipeline's hook points for chaos testing.
    """

    def __init__(
        self,
        model: Model,
        engine: Optional[XQueryEngine] = None,
        plan_cache_size: int = 128,
        result_cache_size: int = 512,
        workers: int = 4,
        default_timeout: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        mode: str = "thread",
        max_pending: Optional[int] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, not {workers}")
        # 0 is one per core: real parallelism in process mode; in thread mode
        # it only widens run_batch's dedup window (the GIL serializes).
        workers = workers or os.cpu_count() or 1
        super().__init__(
            mode, workers, result_cache_size, max_pending, default_timeout, fault_injector
        )
        self.model = model
        self.workers = workers
        # the algebra backend is the default cold path: set-at-a-time plans
        # with hash joins, falling back to the closure compiler per subtree
        # (and to the treewalk wholesale, via the shard worker's retry, on
        # any internal error).
        self.engine = engine or XQueryEngine(EngineConfig(backend="algebra"))
        self._backend = XQueryCalculusBackend(model, engine=self.engine)
        self._plans = LRU(plan_cache_size)
        self._updates = 0
        self._propagations: Dict[str, int] = {
            "kept": 0,
            "patched": 0,
            "invalidated": 0,
            "skipped": 0,
        }
        self._batches = 0
        self._batch_deduped = 0
        #: the export generation every pool replica holds (-1 after a
        #: failed delta, so the next snapshot refreshes them all), and how
        #: often the replicas were rebuilt or replayed a delta.  The
        #: in-process worker adopts the live backend at the model's.
        self._pool_generation = model.generation
        self._refreshes = 0
        self._deltas = 0
        if mode == "process":
            with self._backend.lock:
                # the export and its catalog (built together) exist before
                # the fork, so every worker inherits them instead of
                # parsing a copy, and the first snapshot builds neither.
                self._backend.statistics
                self._pool_generation = self._backend.export_generation
        # imported here: repro.serving's worker module imports this package.
        from ...serving import worker

        # the in-process worker hooks faults itself; the front end hooks a
        # process-mode dispatch.  A respawn must not fork the live model,
        # which another thread may be halfway through updating: it boots
        # from an export, so it may boot one update ahead of the pool
        # generation.  Replaying that update's delta then fails (its ids
        # exist) or changes nothing, and the read runs again either way.
        faults = fault_injector if mode == "thread" else None
        self._start(
            worker.ShardWorker,
            lambda shard, backend: worker.WorkerConfig(
                shard, backend, self._pool_generation, self.engine.config, faults
            ),
            self._backend,
            lambda: worker.replica_backend(export_model_text(model, indent=False), model.metamodel),
            shards=workers,
            write_lock=self._backend.lock,
        )

    # -- public API -------------------------------------------------------------

    def run(self, query: Query, timeout: Optional[float] = None) -> BatchItem:
        """Serve one query: result cache → plan cache → backend.

        Returns a :class:`BatchItem` (a list of live model nodes carrying
        ``served_from_cache`` and ``traces``).  Failures raise — callers
        that want errors as values use :meth:`run_batch` — but are still
        recorded in :meth:`metrics` first.
        """
        return self._answer(query, self._deadline(timeout))

    def run_batch(
        self,
        queries: Iterable[Query],
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        batch_timeout: Optional[float] = None,
    ) -> List[BatchItem]:
        """Serve independent read-only queries on a thread pool.

        Each distinct plan is served once, through the same path as
        :meth:`run`, on a pool of ``workers`` threads; duplicates within
        the batch copy their plan's outcome.  Metrics record one latency
        sample per distinct plan.

        Failures are **isolated per query**: a failing job yields a
        :class:`BatchItem` whose ``error`` is a structured
        :class:`QueryError` while every sibling completes, and metrics
        record the entire batch either way.  ``timeout`` budgets each
        query's wall clock (default :attr:`default_timeout`);
        ``batch_timeout`` additionally caps the whole batch — queries
        that would start after it expires fail fast with kind
        ``timeout``.
        """
        self._check_open()
        queries = list(queries)
        if not queries:
            return []
        workers = self.workers if workers is None else workers
        if workers == 0:
            # "one per core" — see the constructor note: in thread mode
            # this only widens the dedup window (GIL); real scaling needs
            # mode="process", where each worker is its own interpreter.
            workers = os.cpu_count() or 1
        batch_deadline = (
            Deadline.after(batch_timeout) if batch_timeout is not None else None
        )
        keys: List[str] = []
        for index, query in enumerate(queries):
            try:
                keys.append(normalize_query(query))
            except Exception:
                keys.append(f"<unplannable #{index}>")
        distinct: Dict[str, Query] = {}
        for key, query in zip(keys, queries):
            distinct.setdefault(key, query)

        def serve(job: Tuple[str, Query]) -> BatchItem:
            key, query = job
            deadline = self._deadline(timeout)
            if deadline is None:
                deadline = batch_deadline
            else:
                deadline = deadline.cap(batch_deadline)
            try:
                return self._answer(query, deadline)
            except Exception as exc:
                return BatchItem(error=classify_error(exc, key))

        jobs = list(distinct.items())
        if workers <= 1 or len(jobs) <= 1:
            served = [serve(job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
                served = list(pool.map(serve, jobs))
        outcomes = dict(zip(distinct, served))

        items: List[BatchItem] = []
        dup_errors: List[QueryError] = []
        seen = set()
        for key in keys:
            item = outcomes[key]
            if key in seen:
                item = BatchItem(item, item.error, item.served_from_cache, item.traces)
                if item.error is not None:
                    dup_errors.append(item.error)
            seen.add(key)
            items.append(item)
        dups = len(queries) - len(jobs)
        with self._metrics_lock:
            self._batches += 1
            self._batch_deduped += dups
        self._record(dups, 0, None, errors=dup_errors)
        return items

    def apply_update(self, script, check: str = "error") -> Dict[str, object]:
        """Apply an update-language script and *maintain* the caches.

        ``script`` is update-language text (or a parsed
        :class:`~repro.xquery.updates.ast.UpdateScript`).  The script is
        statically checked against the live model (``check="error"``
        rejects error-severity findings before any statement executes),
        applied through the model API, and its exact footprint is then
        intersected with every warm result-cache entry's dependency set:

        * disjoint entries are **re-keyed** to the new generation — a
          repeat of that query stays a cache hit;
        * membership-only changes to patchable scans are **patched**
          (inserted/deleted rows spliced at their sorted position);
        * everything else is invalidated, never served stale.

        In process mode the resolved script is broadcast to the worker
        replicas as a delta instead of a full re-export.  Propagation is
        skipped (entries simply age out, exactly the old behavior) when
        foreign mutations — raw ``model`` writes that bypassed this
        method — have already moved the generation past the export.

        Returns a summary: statements applied, the footprint, per-entry
        propagation counts, and the new generation.
        """
        from ...xquery.updates.apply import apply_script

        with self._backend.lock:
            self._check_open()
            old_generation = self.model.generation
            export_generation = self._backend.export_generation
            in_sync = old_generation == export_generation
            result = apply_script(script, self.model, check=check)
            new_generation = self.model.generation
            propagation = {"kept": 0, "patched": 0, "invalidated": 0, "skipped": 0}
            if new_generation == old_generation:
                # every statement was a no-op: generation-neutral, every
                # cache entry still keyed to the live generation.
                pass
            elif in_sync:
                footprint = result.footprint
                model = self.model

                def decide(deps, ids):
                    if deps is None:
                        return ("drop", None)
                    reasons = deps.affected_by(footprint)
                    if not reasons:
                        return ("keep", None)
                    if reasons == {"membership"} and deps.patchable:
                        patched = patch_result(ids, footprint, deps, model)
                        if patched is not None:
                            return ("patch", patched)
                    return ("drop", None)

                propagation = self._results.propagate(
                    export_generation, new_generation, decide
                )
                propagation["skipped"] = 0
            else:
                # foreign mutations already orphaned the warm entries;
                # footprint-based carry-over would be unsound here.
                propagation["skipped"] = self._results.stats()["currsize"]
            if new_generation != old_generation:
                # fold the script's subtree patches into the export now:
                # the next apply_update (or query) then sees
                # export_generation == model.generation, so back-to-back
                # updates keep propagating instead of being mistaken for
                # foreign mutations and falling into the skip path.
                self._backend.export
                if (
                    self._pool is not None
                    and in_sync
                    and self._pool_generation == export_generation
                ):
                    self._replay(result.text, new_generation)
            with self._metrics_lock:
                self._updates += 1
                for key in ("kept", "patched", "invalidated", "skipped"):
                    self._propagations[key] += propagation[key]
            return {
                "applied": result.applied,
                "generation": new_generation,
                "footprint": result.footprint.describe(),
                "propagation": propagation,
                "diagnostics": [d.to_json() for d in result.diagnostics],
                "script": result.text,
            }

    def _replay(self, script_text: str, generation: int) -> None:
        """Broadcast one resolved update script: each replica replays it,
        O(delta) against a refresh's O(model).  The caller checks that the
        replicas stand where the primary stood before the script.  A failed
        replay anywhere leaves them mixed, so the pool generation is
        poisoned and the next snapshot refreshes them all."""
        try:
            self._pool.broadcast("delta", {"script": script_text, "generation": generation})
        except Exception:
            self._pool_generation = -1
            return
        self._pool_generation = generation
        self._deltas += 1

    def invalidate(self) -> None:
        """Drop cached results and force a full re-export.

        Never required for correctness — mutation tracking invalidates
        automatically — but useful to reclaim memory or force a clean
        baseline in benchmarks.
        """
        self._results.clear()
        self._backend.invalidate_export()

    def explain(self, query: Query) -> Dict[str, object]:
        """The optimized plan for one query, as text and a JSON-ready tree.

        This is the algebra backend's plan (with cardinalities estimated
        from the current export's statistics catalog) plus the generated
        source.
        """
        plan = self._plan(query)
        with self._backend.lock:
            statistics = self._backend.statistics
        explanation = self.engine.compile(plan.source).explain(statistics)
        explanation["plan_key"] = plan.key
        explanation["source"] = plan.source
        if self._pool is not None:
            route = route_query(plan.key, self.shards)
            explanation["route"] = {
                "kind": route.kind,
                "shard": route.shard,
                "reason": route.reason,
            }
        return explanation

    # -- observability ----------------------------------------------------------

    def serving_stats(self) -> Optional[Dict[str, object]]:
        """Synchronous per-worker counters (process mode; worker round-trips)."""
        if self._pool is None:
            return None
        workers = self._pool.stats()
        return {
            "mode": "process",
            "shards": self.shards,
            "generation": self._pool_generation,
            "refreshes": self._refreshes,
            "deltas": self._deltas,
            "workers": workers,
            "runs": sum(w.get("runs", 0) for w in workers),
            "fallbacks": sum(w.get("fallbacks", 0) for w in workers),
            "restarts": self._pool.restarts,
        }

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-layer cache counters: plans, results, engine compile, export."""
        return {
            "plans": self._plans.stats(),
            "results": self._results.stats(),
            "compile": self.engine.cache_info(),
            "export": self._backend.export_stats(),
        }

    def metrics(self) -> Dict[str, object]:
        """The small metrics dict the E15/E16 reports read."""
        reads = self._read_metrics()
        with self._metrics_lock:
            batches = self._batches
            deduped = self._batch_deduped
            updates = self._updates
            propagations = dict(self._propagations)
        plan_stats = self._plans.stats()
        serving = None
        if self._pool is not None:
            # pool-level counters only — per-worker counters require a
            # round-trip; see :meth:`serving_stats`.
            serving = {
                "shards": self.shards,
                "generation": self._pool_generation,
                "refreshes": self._refreshes,
                "deltas": self._deltas,
                "restarts": self._pool.restarts,
                "routes": reads["routes"],
                "shed": reads["shed"],
                "max_pending": self.max_pending,
            }
        return {
            **reads,
            "mode": self.mode,
            "serving": serving,
            "batches": batches,
            "batch_deduped": deduped,
            "updates": updates,
            "propagations": propagations,
            "plan_hits": plan_stats["hits"],
            "plan_misses": plan_stats["misses"],
            # the engine compile LRU (hits/misses/races), which served
            # plans never touch: workers compile on engines of their own.
            "compile_cache": self.engine.cache_info(),
            # the in-process worker's shared scans (thread mode); each
            # process worker reports its own in serving_stats().
            "algebra_cache": (
                self._worker.shared_scans() if self._worker is not None else None
            ),
        }

    # -- internals --------------------------------------------------------------

    def _plan(self, query: Query) -> QueryPlan:
        key = normalize_query(query)

        def build() -> QueryPlan:
            if self.faults is not None:
                self.faults.on_compile(key)
            deps = derive_dependencies(query, self.model.metamodel)
            source = self._backend.compile_to_xquery(query)
            return QueryPlan(key, query, source=source, deps=deps)

        return self._plans.get_or_build(key, build)

    def _snapshot(self, plan: Optional[QueryPlan] = None) -> int:
        """The export generation for any plan, read under the backend's
        lock, which every update holds too."""
        with self._backend.lock:
            if self.faults is not None:
                self.faults.on_export()
            # the statistics walk rides the (already O(model)) export
            # refresh instead of taxing the first query after a mutation.
            self._backend.statistics
            generation = self._backend.export_generation
            if self._pool is not None and generation != self._pool_generation:
                # rebuild the worker replicas at the new generation before
                # any query of it is dispatched.
                self._pool.broadcast(
                    "refresh",
                    {
                        "export_text": export_model_text(self.model, indent=False),
                        "generation": generation,
                    },
                )
                self._pool_generation = generation
                self._refreshes += 1
            return generation

    def _generation(self, plan: QueryPlan) -> int:
        return self.model.generation

    def _answer(self, query: Query, deadline: Optional[Deadline]) -> BatchItem:
        """Serve *query* through the read loop; map its ids to live nodes."""
        ids, traces, cached, _ = self._serve(query, deadline)
        nodes = self.model.nodes
        live = [nodes[node_id] for node_id in ids if node_id in nodes]
        return BatchItem(live, served_from_cache=cached, traces=traces)

    def _payload(self, plan: QueryPlan) -> Dict[str, object]:
        """The shard worker's ``{key, source}``; a dangling start id fails
        here, before any worker runs."""
        start_id = plan.query.start.node_id
        if start_id is not None and start_id not in self.model.nodes:
            # both engine backends treat a dangling start id as a caller
            # error (native always did; the XQuery backend was aligned by
            # the differential fuzzer) — the service must agree even when
            # it evaluates the cached plan itself.
            raise QueryRuntimeError(f"start node {start_id!r} is not in the model")
        return {"key": plan.key, "source": plan.source}

    @staticmethod
    def _decode(reply: Dict) -> Tuple[List[str], Tuple[str, ...]]:
        return reply["ids"], tuple(reply["traces"])
