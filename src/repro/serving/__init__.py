"""The shared-nothing serving tier: partitioned worker processes.

``QueryService(mode="process", workers=N)`` (see
:mod:`repro.querycalc.service`) fronts a :class:`ProcessPool` of N worker
processes, each holding a full model replica and answering for one
partition of the start space.  This package owns the pieces under it:

:mod:`repro.serving.partition`
    ownership schemes (``type``/``hash``), and the router that proves a
    query single-shard from the statistics catalog or scatters it;
:mod:`repro.serving.worker`
    the worker process: faithful replica import, per-worker engine +
    compile LRU, full/sharded plan evaluation;
:mod:`repro.serving.pool`
    worker lifecycle (boot/refresh/respawn) and scatter/gather with the
    order-preserving merge;
:mod:`repro.serving.loadgen`
    the load-generator harness (``python -m repro.serving.loadgen``)
    reporting sustained QPS, p50/p95/p99 latency, and shed rate.
"""

from .partition import PARTITION_SCHEMES, Partitioner, Route, route_query
from .pool import ProcessPool, merge_partials
from .worker import ShardWorker, WorkerConfig, worker_main

__all__ = [
    "PARTITION_SCHEMES",
    "Partitioner",
    "ProcessPool",
    "Route",
    "ShardWorker",
    "WorkerConfig",
    "merge_partials",
    "route_query",
    "worker_main",
]
