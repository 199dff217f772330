"""The shared-nothing serving tier: worker processes behind the services.

``QueryService(mode="process", workers=N)`` (see
:mod:`repro.querycalc.service`) fronts a :class:`ProcessPool` of N worker
processes, each holding a full model replica and answering whole queries:
each query runs on one worker.  In thread mode the service runs the same
:class:`ShardWorker` in-process, so a calculus plan runs one way.
:class:`~repro.collections.SearchService` (see
:mod:`repro.collections.service`) runs its workers, each over the whole
document store, on the same worker handle, request loop and router in
process mode, and holds the same workers in-process in thread mode.  This package owns the
pieces under them:

:mod:`repro.serving.partition`
    the CRC32 bucket and the one router (a calculus plan or a search
    request goes to the worker that owns its key);
:mod:`repro.serving.worker`
    the worker: the op dispatch and request loop both tiers run, and the
    calculus worker's adopted replica, engine, shared scans per export
    generation and plan evaluation (compile, run, treewalk retry, ids).
    A served plan's compiled program lives for its run only: the front
    ends cache plans and answers, and nothing here caches programs;
:mod:`repro.serving.pool`
    the worker handles (a respawning process, or one in-process worker),
    the concurrent write fan-out (``scatter``), and the calculus pool's replica refresh and
    one-request execution.  It loads :mod:`multiprocessing`, so the
    package does not import it: a thread-mode ``QueryService`` loads only
    ``partition`` and ``worker``, and process mode and the search tier
    import ``repro.serving.pool`` themselves, before any fork;
:mod:`repro.serving.loadgen`
    the load-generator harness (``python -m repro.serving.loadgen``)
    reporting sustained QPS, p50/p95/p99 latency, and shed rate.
"""

from .partition import Route, bucket, route_query
from .worker import ShardWorker, WorkerConfig, dispatch, worker_main

__all__ = [
    "Route",
    "ShardWorker",
    "WorkerConfig",
    "bucket",
    "dispatch",
    "route_query",
    "worker_main",
]
