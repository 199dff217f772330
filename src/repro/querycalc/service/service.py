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

The read loop is :class:`FrontEnd`, which the search tier's
:class:`~repro.collections.service.SearchService` extends too: both front
ends serve reads under one rule and count them in one shape.

A plan runs one way in both modes: :meth:`QueryService._execute` sends
it as one ``{key, source, remaining}`` payload to a
:class:`~repro.serving.worker.ShardWorker`, which compiles it, runs it
over its backend's export with a shared-scan cache per export
generation, and turns the result into node ids.  Thread mode holds one
such worker in-process, over the service's own backend, engine and fault
injector; process mode sends the payload to the worker process the
plan's key routes to.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ...awb.model import Model
from ...lru import LRU
from ...xquery import EngineConfig, XQueryEngine
from ..ast import Query
from ..native import QueryRuntimeError
from ..via_xquery import XQueryCalculusBackend
from .deps import derive_dependencies, patch_result
from .errors import Deadline, QueryError, QueryOverloadError, classify_error
from .faults import FaultInjector
from .plans import QueryPlan, normalize_query
from .results import BatchItem, ResultCache

#: the service's execution modes: a thread pool in this process (threads
#: only help via dedup+caching — the GIL serializes evaluation), or a
#: shared-nothing pool of worker processes (see :mod:`repro.serving`).
SERVICE_MODES = ("thread", "process")

#: Latency samples kept for the p50/p95 metrics (oldest evicted first).
MAX_LATENCY_SAMPLES = 2048


def percentile(samples: List[float], fraction: float) -> float:
    """Standard ceil-based nearest-rank percentile (1-indexed rank).

    The previous ``round()``-based formula suffered banker's rounding:
    p50 of five samples landed on the 2nd value instead of the median.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


class FrontEnd:
    """The read loop both serving front ends share, with its counters.

    A subclass supplies four steps: ``_plan(request)``, the
    :class:`QueryPlan` the result cache keys on; ``_snapshot(plan)``, the
    generation read under the subclass's writer lock;
    ``_execute(plan, deadline)``, ``(value, traces)``; and
    ``_generation(plan)``, the generation now.  ``max_pending`` bounds
    executions in flight (``None`` admits all).
    """

    def __init__(self, result_cache_size: int, max_pending: Optional[int] = None):
        self._results = ResultCache(maxsize=result_cache_size)
        self._metrics_lock = threading.Lock()
        self._latencies: List[float] = []
        self._queries = 0
        self._executed = 0
        self._errors_by_kind: Dict[str, int] = {}
        self._shed = 0
        self._routes: Dict[str, int] = {}
        self.max_pending = max_pending
        self._admission = (
            threading.BoundedSemaphore(max_pending)
            if max_pending is not None
            else None
        )

    def _serve(self, request, deadline: Optional[Deadline] = None):
        """Plan, then snapshot → result cache → admit → execute, and return
        ``(value, traces, cached, generation)``; recorded either way.

        A write that lands mid-read may reach a worker before the read, so
        a result is cached and returned only if the generation is still the
        snapshot's.  Otherwise the read runs again, once the next snapshot
        has waited out the write.  Deadline checks bound the loop.
        """
        started = time.perf_counter()
        key: Optional[str] = None
        executed = 0
        errors: Tuple[QueryError, ...] = ()
        try:
            plan = self._plan(request)
            key = plan.key
            while True:
                generation = self._snapshot(plan)
                cached = self._results.get((plan.cache_key, generation), plan.deps)
                if cached is not None:
                    return cached[0], cached[1], True, generation
                executed += 1
                admitted = self._admit()
                try:
                    value, traces = self._execute(plan, deadline)
                finally:
                    if admitted:
                        self._admission.release()
                if self._generation(plan) == generation:
                    self._results.put(
                        (plan.cache_key, generation), value, traces, plan.deps
                    )
                    return value, traces, False, generation
        except Exception as exc:
            errors = (classify_error(exc, key),)
            raise
        finally:
            self._record(1, executed, time.perf_counter() - started, errors)

    def _admit(self) -> bool:
        """Reserve an execution slot, or shed with ``XQDY_OVERLOAD``.

        Returns False when admission control is off (``max_pending=None``);
        cache hits never reach this point, so a saturated tier still
        answers everything it has already computed.
        """
        if self._admission is None:
            return False
        if not self._admission.acquire(blocking=False):
            with self._metrics_lock:
                self._shed += 1
            raise QueryOverloadError(
                f"serving tier saturated: {self.max_pending} requests "
                "already in flight"
            )
        return True

    def _route(self, kind: str) -> None:
        """Count one execution routed as *kind* (always ``single``)."""
        with self._metrics_lock:
            self._routes[kind] = self._routes.get(kind, 0) + 1

    def _record(
        self,
        queries: int,
        executed: int,
        elapsed: Optional[float],
        errors: Iterable[QueryError] = (),
    ) -> None:
        """Count *queries*; ``elapsed=None`` records no latency sample."""
        with self._metrics_lock:
            self._queries += queries
            self._executed += executed
            if elapsed is not None:
                self._latencies.append(elapsed)
                if len(self._latencies) > MAX_LATENCY_SAMPLES:
                    del self._latencies[: len(self._latencies) - MAX_LATENCY_SAMPLES]
            for error in errors:
                self._errors_by_kind[error.kind] = self._errors_by_kind.get(error.kind, 0) + 1

    def _read_metrics(self) -> Dict[str, object]:
        """The read counters, result-cache hits and latency percentiles."""
        with self._metrics_lock:
            latencies = list(self._latencies)
            by_kind = dict(self._errors_by_kind)
            reads: Dict[str, object] = {
                "queries": self._queries,
                "executed": self._executed,
                "errors": sum(by_kind.values()),
                "timeouts": by_kind.get("timeout", 0),
                "errors_by_kind": by_kind,
                "shed": self._shed,
                "routes": dict(self._routes),
            }
        results = self._results.stats()
        reads["hits"] = results["hits"]
        reads["misses"] = results["misses"]
        for name, fraction in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            reads[name] = percentile(latencies, fraction) * 1000.0
        return reads


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
        if mode not in SERVICE_MODES:
            raise ValueError(f"mode must be one of {SERVICE_MODES}, not {mode!r}")
        if workers == 0:
            # "as many as the machine has": meaningful parallelism in
            # process mode; in thread mode extra workers only widen the
            # dedup window (the GIL serializes actual evaluation — use
            # mode="process" for real scaling).
            workers = os.cpu_count() or 1
        if max_pending is None and mode == "process":
            max_pending = workers * 4
        super().__init__(result_cache_size, max_pending)
        self.model = model
        self.workers = workers
        self.mode = mode
        self.default_timeout = default_timeout
        self.faults = fault_injector
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
        self._fallbacks = 0
        # -- where plans run: one worker here, or a pool of processes ------
        # imported lazily: repro.serving imports this package's errors
        # module, so a top-level import would be circular.
        from ...serving.worker import ShardWorker, WorkerConfig

        self._worker = None
        self._pool = None
        if mode == "thread":
            self._worker = ShardWorker(
                WorkerConfig(
                    shard=0,
                    backend=self._backend,
                    generation=model.generation,
                    engine=self.engine,
                    faults=fault_injector,
                )
            )
        else:
            from ...serving.pool import ProcessPool

            with self._backend.lock:
                # the export and its catalog (built together) exist before
                # the fork, so every worker inherits them instead of
                # parsing a copy, and the first snapshot builds neither.
                self._backend.statistics
            self._pool = ProcessPool(self._backend, shards=workers)

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
                if self._pool is not None:
                    self._pool.apply_delta(
                        result.text,
                        base_generation=export_generation,
                        new_generation=new_generation,
                        in_sync=in_sync,
                    )
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
            from ...serving.partition import route_query

            route = route_query(plan.key, self._pool.shards)
            explanation["route"] = {
                "kind": route.kind,
                "shard": route.shard,
                "reason": route.reason,
            }
        return explanation

    def close(self) -> None:
        """Shut down the worker-process pool (no-op in thread mode).

        Thread-mode services need no teardown; process-mode services own
        real OS processes, and tests/benchmarks that create many services
        should close them (or use the service as a context manager).
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ----------------------------------------------------------

    def serving_stats(self) -> Optional[Dict[str, object]]:
        """Synchronous per-worker counters (process mode; worker round-trips)."""
        if self._pool is None:
            return None
        return self._pool.stats()

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
            fallbacks = self._fallbacks
            updates = self._updates
            propagations = dict(self._propagations)
        plan_stats = self._plans.stats()
        serving = None
        if self._pool is not None:
            # pool-level counters only — per-worker counters require a
            # round-trip; see :meth:`serving_stats`.
            serving = {
                "shards": self._pool.shards,
                "generation": self._pool.generation,
                "refreshes": self._pool.refreshes,
                "deltas": self._pool.deltas,
                "restarts": sum(h.restarts for h in self._pool.handles),
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
            "fallbacks": fallbacks,
            "updates": updates,
            "propagations": propagations,
            "plan_hits": plan_stats["hits"],
            "plan_misses": plan_stats["misses"],
            # the engine compile LRU (hits/misses/races), which served
            # plans bypass; explain and other engine callers fill it.
            "compile_cache": self.engine.cache_info(),
            # the in-process worker's shared scans (thread mode); each
            # process worker reports its own in serving_stats().
            "algebra_cache": (
                self._worker.shared_scans() if self._worker is not None else None
            ),
        }

    # -- internals --------------------------------------------------------------

    def _deadline(self, timeout: Optional[float]) -> Optional[Deadline]:
        timeout = timeout if timeout is not None else self.default_timeout
        return Deadline.after(timeout) if timeout is not None else None

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
            if self._pool is not None:
                # broadcast the new generation to the worker replicas
                # before any query of this generation is dispatched.
                self._pool.ensure_generation(generation)
            return generation

    def _generation(self, plan: QueryPlan) -> int:
        return self.model.generation

    def _answer(self, query: Query, deadline: Optional[Deadline]) -> BatchItem:
        """Serve *query* through the read loop; map its ids to live nodes."""
        ids, traces, cached, _ = self._serve(query, deadline)
        nodes = self.model.nodes
        live = [nodes[node_id] for node_id in ids if node_id in nodes]
        return BatchItem(live, served_from_cache=cached, traces=traces)

    def _execute(
        self, plan: QueryPlan, deadline: Optional[Deadline] = None
    ) -> Tuple[List[str], Tuple[str, ...]]:
        """Evaluate one plan, returning (node ids, trace messages).

        Both modes send one ``{key, source, remaining}`` payload to a
        shard worker's ``run``.  Process mode sends it to the worker its
        key routes to, after one fault hook for the dispatch; thread mode
        calls the in-process worker directly, which hooks the fault
        injector ahead of each attempt.  A run that fell back to the
        treewalk counts in ``metrics()["fallbacks"]``.
        """
        start_id = plan.query.start.node_id
        if start_id is not None and start_id not in self.model.nodes:
            # both engine backends treat a dangling start id as a caller
            # error (native always did; the XQuery backend was aligned by
            # the differential fuzzer) — the service must agree even when
            # it evaluates the cached plan itself.
            raise QueryRuntimeError(f"start node {start_id!r} is not in the model")
        if self._pool is None:
            run = self._worker.run
        else:
            from ...serving.partition import route_query

            route = route_query(plan.key, self._pool.shards)
            self._route(route.kind)
            if self.faults is not None:
                self.faults.on_evaluate(plan.key, deadline, backend="process")
            if deadline is not None:
                deadline.check("dispatch")
            run = functools.partial(self._pool.execute, route)
        payload = {
            "key": plan.key,
            "source": plan.source,
            "remaining": deadline.remaining() if deadline is not None else None,
        }
        try:
            reply = run(payload)
        except Exception as exc:
            # an in-process run that fell back and still failed says so on
            # its error; a worker process's error arrives classified.
            self._count_fallback(getattr(exc, "fell_back", False))
            raise
        self._count_fallback(reply["fallback"])
        return reply["ids"], tuple(reply["traces"])

    def _count_fallback(self, fell_back: bool) -> None:
        if fell_back:
            with self._metrics_lock:
                self._fallbacks += 1
