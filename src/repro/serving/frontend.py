"""The serving front end both tiers extend: mode rule, read loop, close.

The calculus :class:`~repro.querycalc.service.QueryService` and the
search tier's :class:`~repro.collections.SearchService` each extend
:class:`FrontEnd`, which boots their workers by one mode rule, serves
their reads by one loop and execute step, and refuses everything once
closed.  A tier keeps only what differs: its plan, payload and reply
decoding, its locks, its writes and its stats.  :mod:`repro.serving.pool`
is loaded in process mode only, so a thread-mode front end never imports
:mod:`multiprocessing`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..querycalc.service.errors import Deadline, QueryError, QueryOverloadError, classify_error
from ..querycalc.service.results import ResultCache
from .partition import route_query

__all__ = ["FrontEnd", "QueryPlan", "SERVICE_MODES", "percentile"]

#: one worker in this process, or a shared-nothing pool of worker processes.
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


@dataclass
class QueryPlan:
    """An executable plan for one calculus query or search request."""

    key: str
    #: the calculus :class:`Query`, or the search tier's ``SearchRequest``.
    query: object
    #: generated XQuery source.
    source: Optional[str] = None
    #: the plan's :class:`~repro.querycalc.service.deps.DependencySet`,
    #: derived at build time — what its cached answers can depend on.
    deps: Optional[object] = None

    @property
    def cache_key(self) -> str:
        """The result-cache key: the generated source, which both modes know
        when the plan is built (equal source, equal plan), else the key."""
        return self.source if self.source is not None else self.key


class FrontEnd:
    """The mode rule, read loop, execute step and close both tiers share.

    A subclass calls ``__init__``, then :meth:`_start` once its worker's
    state exists, and supplies ``_plan(request)`` (the :class:`QueryPlan`
    the result cache keys on), ``_snapshot(plan)`` (the generation read
    under its writer lock), ``_generation(plan)`` (the generation now),
    ``_payload(plan)`` (the worker's ``run`` payload, less the budget) and
    ``_decode(reply)`` (``(value, traces)``).  ``max_pending`` bounds
    executions in flight (default: none in thread mode, ``workers * 4``
    in process mode); ``default_timeout`` budgets a read that sets none;
    ``faults`` is hooked at a process-mode dispatch.
    """

    def __init__(
        self,
        mode: str,
        workers: int,
        result_cache_size: int,
        max_pending: Optional[int] = None,
        default_timeout: Optional[float] = None,
        faults=None,
    ):
        if mode not in SERVICE_MODES:
            raise ValueError(f"mode must be one of {SERVICE_MODES}, not {mode!r}")
        if max_pending is None and mode == "process":
            max_pending = workers * 4
        self.mode = mode
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self.faults = faults
        #: the workers a plan's key routes over: the pool's, or the one.
        self.shards = 1
        self._worker = None
        self._pool = None
        self._closed = False
        self._results = ResultCache(maxsize=result_cache_size)
        self._metrics_lock = threading.Lock()
        self._latencies: deque = deque(maxlen=MAX_LATENCY_SAMPLES)
        self._queries = 0
        self._executed = 0
        self._fallbacks = 0
        self._errors_by_kind: Dict[str, int] = {}
        self._shed = 0
        self._routes: Dict[str, int] = {}
        self._admission = (
            threading.BoundedSemaphore(max_pending) if max_pending is not None else None
        )

    def _start(
        self, make_worker, make_config, boot, replica, shards, write_lock, handle=None, lock=None
    ) -> None:
        """The mode rule.  Thread mode runs one ``make_worker(make_config(0,
        boot))`` in-process, under *lock* if one is given.  Process mode
        runs a :class:`~repro.serving.pool.ProcessPool` of *shards* workers
        behind *handle* (default ``WorkerHandle``): the first boot inherits
        *boot*, and a respawn boots from a fresh ``replica()``.  Every write
        holds *write_lock*, and so does :meth:`close`."""
        self._write_lock = write_lock
        self._worker_lock = lock or nullcontext()
        if self.mode == "thread":
            self._worker = make_worker(make_config(0, boot))
            return
        from .pool import ProcessPool, WorkerHandle

        self._pool = ProcessPool(
            handle or WorkerHandle, make_worker, make_config, replica, shards=shards, boot=boot
        )
        self.shards = shards

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Once no write is in flight, refuse every later read and write and
        stop any worker processes; safe to call twice."""
        with self._write_lock:
            self._closed = True
            if self._pool is not None:
                self._pool.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def _deadline(self, timeout: Optional[float]) -> Optional[Deadline]:
        """*timeout* (else ``default_timeout``) as a deadline from now."""
        timeout = timeout if timeout is not None else self.default_timeout
        return Deadline.after(timeout) if timeout is not None else None

    # -- the read loop -----------------------------------------------------

    def _serve(self, request, deadline: Optional[Deadline] = None):
        """Plan, then snapshot → result cache → admit → execute, and return
        ``(value, traces, cached, generation)``; recorded either way.

        A write that lands mid-read may reach a worker before the read, so
        a result is cached and returned only if the generation is still the
        snapshot's.  Otherwise the read runs again, once the next snapshot
        has waited out the write.  Deadline checks bound the loop.
        """
        self._check_open()
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

    def _execute(self, plan: QueryPlan, deadline: Optional[Deadline]):
        """Run *plan* once on the worker its key routes to; ``(value, traces)``.

        The in-process worker hooks faults and checks the deadline itself.
        A process-mode dispatch is hooked and checked here, then waits the
        budget left (plus the handle's grace) before the worker is
        respawned.  A run that fell back to the treewalk counts in
        ``fallbacks``.
        """
        payload = self._payload(plan)
        route = route_query(plan.key, self.shards)
        with self._metrics_lock:
            self._routes[route.kind] = self._routes.get(route.kind, 0) + 1
        if self._pool is not None:
            if self.faults is not None:
                self.faults.on_evaluate(plan.key, deadline, backend="process")
            if deadline is not None:
                deadline.check("dispatch")
        payload["remaining"] = deadline.remaining() if deadline is not None else None
        try:
            if self._pool is not None:
                reply = self._pool.execute(route, payload, payload["remaining"])
            else:
                with self._worker_lock:
                    reply = self._worker.run(payload)
        except Exception as exc:
            # an in-process run that fell back and still failed says so on
            # its error; a worker process's error arrives classified.
            self._count_fallback(getattr(exc, "fell_back", False))
            raise
        self._count_fallback(reply.get("fallback", False))
        return self._decode(reply)

    def _admit(self) -> bool:
        """Reserve an execution slot (False: no bound), or shed with
        ``XQDY_OVERLOAD``.  Cache hits never get here, so a saturated tier
        still answers everything it has already computed."""
        if self._admission is None:
            return False
        if not self._admission.acquire(blocking=False):
            with self._metrics_lock:
                self._shed += 1
            raise QueryOverloadError(
                f"serving tier saturated: {self.max_pending} requests already in flight"
            )
        return True

    # -- counters ----------------------------------------------------------

    def _count_fallback(self, fell_back: bool) -> None:
        if fell_back:
            with self._metrics_lock:
                self._fallbacks += 1

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
                "fallbacks": self._fallbacks,
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
