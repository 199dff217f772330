"""The shared-nothing serving tier: worker processes behind the services.

Both front ends follow one mode rule.  In thread mode a front end runs
one worker in-process over its own live state, with no pool:
``QueryService`` (see :mod:`repro.querycalc.service`) runs a
:class:`ShardWorker` over its backend, and
:class:`~repro.collections.SearchService` (see
:mod:`repro.collections.service`) runs a
:class:`~repro.collections.worker.CollectionWorker` over its
authoritative store.  In process mode each holds one
:class:`~repro.serving.pool.ProcessPool` of N worker processes, each over
a full replica and answering whole requests: each request runs on one
worker.  This package owns the pieces under them:

:mod:`repro.serving.partition`
    the CRC32 bucket and the one router (a calculus plan or a search
    request goes to the worker that owns its key);
:mod:`repro.serving.worker`
    the worker: the request loop both tiers run in a worker process, and
    the calculus worker's adopted replica, engine, shared scans per export
    generation and plan evaluation (compile, run, treewalk retry, ids).
    A served plan's compiled program lives for its run only: the front
    ends cache plans and answers, and nothing here caches programs;
:mod:`repro.serving.pool`
    the one pool (concurrent boot, one-request ``execute``, the
    ``broadcast`` every write goes through, ``stats``, ``close``) and its
    respawning worker handle.  It loads :mod:`multiprocessing`, so the
    package does not import it: a thread-mode ``QueryService`` loads only
    ``partition`` and ``worker``, and process mode and the search tier
    import ``repro.serving.pool`` themselves, before any fork;
:mod:`repro.serving.loadgen`
    the load-generator harness (``python -m repro.serving.loadgen``)
    reporting sustained QPS, p50/p95/p99 latency, and shed rate.
"""

from .partition import Route, bucket, route_query
from .worker import ShardWorker, WorkerConfig, worker_main

__all__ = [
    "Route",
    "ShardWorker",
    "WorkerConfig",
    "bucket",
    "route_query",
    "worker_main",
]
