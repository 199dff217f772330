"""The worker pool both serving tiers hold in process mode.

A process-mode :class:`~repro.serving.frontend.FrontEnd` builds one
:class:`ProcessPool`: the calculus
:class:`~repro.querycalc.service.QueryService` over
:class:`~repro.serving.worker.ShardWorker` processes, and the search
tier's :class:`~repro.collections.service.SearchService` over
:class:`~repro.collections.worker.CollectionWorker` processes.  In thread
mode neither front end holds a pool: each runs one worker in-process
over its own live state.  Both tiers follow three rules, and the pool
codes them once:

* every worker holds a full replica: its first boot forks with the front
  end's live state, and a respawn boots from a replica built from it;
* a read goes whole to the worker its key routes to
  (:meth:`ProcessPool.execute`);
* a write goes to every worker (:meth:`ProcessPool.broadcast`).

A worker is held through a :class:`WorkerHandle`: a forked process that
is respawned when it dies or hangs.  Process workers are shared-nothing,
so N workers really do evaluate N different requests concurrently
instead of time-slicing one GIL.  The tier is fork-only: a boot config
holds live objects the child inherits (a backend, or a document store
whose documents are known by ``id()``), which a ``spawn`` child would
receive as pickled copies.

Compiled closures don't pickle, so the parent never ships compiled plans.
A :class:`~repro.serving.frontend.QueryPlan` carries the generated
*source*; the one worker its key routes to compiles it for each run and
drops the program with it (the answer is what the front end caches).
The source is also the plan's result key, in both modes, so the front
end knows it before any worker answers:
a plan rebuilt after the plan cache evicted it still hits its cached
result, and two calculus spellings that generate one source share one
entry.  The pool keeps no per-plan state.
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..querycalc.service.errors import RemoteQueryError
from ..xquery.errors import XQueryTimeoutError
from .partition import Route
from .worker import worker_main

__all__ = [
    "ProcessPool",
    "WorkerHandle",
    "merge_partials",
]

#: hard ceiling on one worker round-trip when no query deadline is set.
DEFAULT_REQUEST_TIMEOUT = 60.0

#: wall-clock grace added to a query's own budget before the parent
#: declares the worker unresponsive and respawns it.
REQUEST_GRACE = 5.0

#: how long a worker may take to build its replica and report ready.
BOOT_TIMEOUT = 120.0

_CTX = multiprocessing.get_context("fork")


class WorkerUnresponsiveError(XQueryTimeoutError):
    """The worker missed the parent-side deadline and was respawned."""


# No caller in src/; kept because bench/layers.py names it as a trace target.
def merge_partials(
    partials: List[dict], descending: bool, distinct: bool
) -> Tuple[List[str], Tuple[str, ...]]:
    """Gather: merge per-shard partials into the global result order.

    Each partial's rows are ``(sort_key, node_id)`` pairs where the key is
    exactly the string the per-shard ``order by`` sorted on.  The global
    sort therefore orders by the same ``(key, id)`` tuple — with the id
    tie-break taking the sort's direction, matching both engines — and is
    independent of arrival order.  Under ``distinct`` a node reachable
    from start nodes on several shards appears in several partials;
    duplicates sort adjacent (same key, same id) and collapse here.
    """
    rows: List[Tuple[str, str]] = []
    traces: List[str] = []
    for partial in partials:
        rows.extend(partial["rows"])
        traces.extend(partial["traces"])
    rows.sort(key=lambda row: (row[0], row[1]), reverse=descending)
    ids: List[str] = []
    for _, node_id in rows:
        if distinct and ids and ids[-1] == node_id:
            continue
        ids.append(node_id)
    return ids, tuple(traces)


class WorkerHandle:
    """One worker process plus the parent's end of its pipe.

    Both serving tiers hold their worker processes through this class.
    The worker runs :func:`~repro.serving.worker.worker_main` over
    ``make_worker``; ``make_config()`` builds its boot config, which the
    forked child inherits, and is called again on every respawn, so a
    fresh worker boots from the owner's current state rather than from
    the state at first boot.

    Booting is two steps: the constructor (and :meth:`start`) forks the
    worker, and :meth:`wait` takes its boot reply.  A
    :class:`ProcessPool` starts every handle before waiting on any, so its
    workers boot at the same time; a respawn is start + wait on one handle.

    A lock is held across each send+recv pair, so the pipe never carries
    interleaved conversations.  A request that misses its deadline kills
    and respawns the worker (the pipe would otherwise hold a stale reply),
    surfacing as ``XQDY_TIMEOUT``; a worker that died mid-request is
    respawned too.  A respawn that failed to boot leaves no worker, and
    the next request boots one before it sends.  A closed handle forks
    nothing: its requests raise.
    """

    def __init__(self, shard: int, make_worker: Callable, make_config: Callable[[], object]):
        self.shard = shard
        #: the wait for a request that sets no deadline of its own.
        self.request_timeout = DEFAULT_REQUEST_TIMEOUT
        self._make_worker = make_worker
        self._make_config = make_config
        self._lock = threading.Lock()
        self._req_ids = count()
        self.restarts = 0
        self.process = None
        self.conn = None
        self._closed = False
        self.start()

    def start(self) -> None:
        """Fork a worker booting from a fresh ``make_config()``."""
        config = self._make_config()
        self.conn, child_conn = _CTX.Pipe()
        self.process = _CTX.Process(
            target=worker_main,
            args=(child_conn, self._make_worker, config),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def wait(self) -> None:
        """Take the boot reply.  A boot that fails, dies or overruns
        :data:`BOOT_TIMEOUT` kills the worker, closes the pipe and raises."""
        try:
            if not self.conn.poll(BOOT_TIMEOUT):
                raise RuntimeError(f"worker {self.shard} failed to boot in time")
            status, _, payload = self.conn.recv()
            if status != "ok":
                raise RemoteQueryError(payload)
        except (EOFError, OSError):
            self.kill()
            raise RuntimeError(f"worker {self.shard} died while booting") from None
        except BaseException:
            self.kill()
            raise

    def _respawn(self) -> None:
        if self._closed:
            raise RuntimeError(f"worker {self.shard} is closed")
        self.restarts += 1
        self.kill()
        self.start()
        self.wait()

    def kill(self) -> None:
        """Close the pipe and SIGKILL the worker; safe to call twice."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        if self.process is not None:
            if self.process.is_alive():
                # SIGKILL, not SIGTERM: a stopped (hung) worker ignores the latter
                self.process.kill()
            self.process.join(timeout=5.0)
        self.process = None
        self.conn = None

    def request(self, op: str, payload: dict, timeout: Optional[float] = None):
        """One round-trip; raises the worker's structured error on failure."""
        wait = (
            timeout + REQUEST_GRACE
            if timeout is not None
            else self.request_timeout
        )
        with self._lock:
            if self.conn is None:
                self._respawn()
            req_id = next(self._req_ids)
            try:
                self.conn.send((op, req_id, payload))
                if not self.conn.poll(wait):
                    self._respawn()
                    raise WorkerUnresponsiveError(
                        f"worker {self.shard} missed its {wait:.1f}s deadline "
                        "and was respawned"
                    )
                status, reply_id, body = self.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                # the worker died mid-request (crash, OOM kill): bring a
                # fresh one up before surfacing the failure.
                self._respawn()
                raise RuntimeError(
                    f"worker {self.shard} died mid-request and was respawned"
                )
        if reply_id != req_id:
            # a stale reply on a fresh pipe cannot happen (respawn drops the
            # pipe), so this is a protocol bug worth failing loudly on.
            raise RuntimeError(
                f"worker {self.shard} answered request {reply_id}, expected {req_id}"
            )
        if status == "err":
            raise RemoteQueryError(body)
        return body

    def close(self) -> None:
        """Stop the worker for good; a later request raises."""
        self._closed = True
        if self.conn is not None:
            try:
                self.conn.send(("shutdown", -1, {}))
                self.conn.poll(2.0)
            except (BrokenPipeError, OSError):
                pass
        if self.process is not None:
            self.process.join(timeout=5.0)
        self.kill()


class ProcessPool:
    """One worker process per shard, each over a full replica.

    Both serving tiers hold one in process mode.  ``handle`` is
    :class:`WorkerHandle` or a subclass of it, and each handle builds its
    worker with ``make_worker(make_config(shard, state))``.  The first
    boot's state is *boot*, which every forked worker inherits as it
    stands, so the caller builds it before any other thread can change
    it.  A respawn gets a fresh ``replica()``.  It runs on whichever
    thread found its worker gone, a broadcast thread included, so neither
    ``replica`` nor ``make_config`` may take a lock that a broadcasting
    caller holds.

    Every shard is forked before any boot reply is read, so the workers
    boot concurrently and the pool is up after about one boot.  If any
    start or boot fails, every handle made so far is killed before the
    failure propagates: no sibling outlives it.
    """

    def __init__(
        self,
        handle: Callable,
        make_worker: Callable,
        make_config: Callable[[int, object], object],
        replica: Callable[[], object],
        shards: int,
        boot: object,
    ):
        self.shards = shards
        self._make_config = make_config
        self._replica = replica
        self._boot = boot
        self._closed = False
        self._broadcaster = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="pool-broadcast"
        )
        self.handles: list = []
        try:
            for shard in range(shards):
                self.handles.append(
                    handle(shard, make_worker, functools.partial(self._config, shard))
                )
            for worker in self.handles:
                worker.wait()
        except BaseException:
            for worker in self.handles:
                worker.kill()
            raise
        self._boot = None

    def _config(self, shard: int):
        state = self._boot if self._boot is not None else self._replica()
        return self._make_config(shard, state)

    # -- requests ----------------------------------------------------------
    # The front end refuses requests once closed; a closed handle forks nothing.

    def execute(self, route: Route, payload: dict, timeout: Optional[float] = None):
        """Send one ``run`` payload to the worker *route* names; its reply."""
        return self.handles[route.shard].request("run", payload, timeout)

    def broadcast(self, op: str, payload: dict) -> list:
        """Send one request to every worker concurrently; replies in shard
        order.

        Every worker is asked and drained before a failure surfaces (each
        pipe must be quiet again before its next request), then the first
        failure in shard order is re-raised.  A lone worker is asked on the
        calling thread: there is nothing to overlap it with.
        """
        if len(self.handles) == 1:
            return [self.handles[0].request(op, payload)]
        futures = [
            self._broadcaster.submit(worker.request, op, payload)
            for worker in self.handles
        ]
        replies = []
        failure: Optional[BaseException] = None
        for future in futures:
            try:
                replies.append(future.result())
            except BaseException as exc:  # keep draining: siblings must finish
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return replies

    # -- observability / lifecycle ----------------------------------------

    def stats(self) -> List[Dict[str, object]]:
        """Each worker's own counters plus its handle's restart count."""
        workers = []
        for worker in self.handles:
            try:
                entry = worker.request("stats", {})
            except Exception as exc:
                entry = {"shard": worker.shard, "error": str(exc)}
            entry["restarts"] = worker.restarts
            workers.append(entry)
        return workers

    @property
    def restarts(self) -> int:
        """Respawns across every worker."""
        return sum(worker.restarts for worker in self.handles)

    def close(self) -> None:
        """Stop every worker; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        self._broadcaster.shutdown(wait=False)
        for worker in self.handles:
            worker.close()

    def __del__(self):  # best-effort: daemon workers die with the parent anyway
        try:
            self.close()
        except Exception:
            pass

