"""The shared-nothing serving tier: worker processes behind the services.

``QueryService(mode="process", workers=N)`` (see
:mod:`repro.querycalc.service`) fronts a :class:`ProcessPool` of N worker
processes, each holding a full model replica and answering whole queries:
each query runs on one worker.  :class:`~repro.collections.SearchService`
(see :mod:`repro.collections.service`) runs its document shards on the
same worker handle, request loop and fan-out in process mode, and on the
same workers held in-process in thread mode.  This package owns the
pieces under them:

:mod:`repro.serving.partition`
    the CRC32 bucket, the calculus router (a plan goes to the worker that
    owns its key) and the search-request router;
:mod:`repro.serving.worker`
    the worker: the op dispatch and request loop both tiers run, and the
    calculus worker's faithful replica import, per-worker engine +
    compile LRU and plan evaluation;
:mod:`repro.serving.pool`
    the worker handles (a respawning process, or one in-process worker),
    the concurrent scatter, and the calculus pool's replica refresh and
    one-request execution;
:mod:`repro.serving.loadgen`
    the load-generator harness (``python -m repro.serving.loadgen``)
    reporting sustained QPS, p50/p95/p99 latency, and shed rate.
"""

from .partition import Route, bucket, route_query, route_request
from .pool import LocalHandle, ProcessPool, WorkerHandle, scatter
from .worker import ShardWorker, WorkerConfig, dispatch, worker_main

__all__ = [
    "LocalHandle",
    "ProcessPool",
    "Route",
    "ShardWorker",
    "WorkerConfig",
    "WorkerHandle",
    "bucket",
    "dispatch",
    "route_query",
    "route_request",
    "scatter",
    "worker_main",
]
