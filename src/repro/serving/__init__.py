"""The shared-nothing serving tier: the front end and the workers behind it.

``QueryService`` and :class:`~repro.collections.SearchService` both
extend :class:`~repro.serving.frontend.FrontEnd`: one worker in-process in thread mode, or a
:class:`~repro.serving.pool.ProcessPool` of N worker processes, each over
a full replica and answering whole requests.  This package owns:

:mod:`repro.serving.frontend`
    the front end, where the read loop lives, with the mode rule, the
    execute step, admission, the closed rule and the read counters;
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
    respawning worker handle.  It loads :mod:`multiprocessing`: a
    thread-mode ``QueryService`` loads only ``frontend``, ``partition`` and
    ``worker``, and the front end in process mode and the search tier
    import ``repro.serving.pool`` themselves, before any fork;
:mod:`repro.serving.loadgen`
    the load-generator harness (``python -m repro.serving.loadgen``)
    reporting sustained QPS, p50/p95/p99 latency, and shed rate.

The package imports none of these itself, so importing the calculus
service without running it (docgen does) loads only ``frontend`` and
``partition``.
"""

# The calculus package first: its service module extends ``FrontEnd``, and
# ``frontend`` imports the calculus error taxonomy and result cache.
from .. import querycalc  # noqa: F401

