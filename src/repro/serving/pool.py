"""The process pool: worker lifecycle, fan-out and the calculus pool.

:class:`WorkerHandle` (boot, request, respawn), :func:`boot_workers`
(start every shard, then wait for each) and :func:`worker_stats` serve
both serving tiers:
the calculus tier's :class:`ProcessPool` below and the search tier's
:class:`~repro.collections.service.SearchService`, whose thread mode
holds the same workers in-process through :class:`LocalHandle`.  Every
search worker holds the whole store, so a read goes to one worker and a
write goes to all of them through :func:`scatter`, the search tier's
write fan-out.

The process-mode calculus front end owns one :class:`ProcessPool`.  Each
worker is a forked OS process holding a full model replica, its own
engine and its own shared-scan cache per export generation:
shared-nothing, so N workers really do evaluate N different queries
concurrently instead of time-slicing one GIL.  Each query runs, whole,
on one worker, through the same :meth:`ShardWorker.run
<repro.serving.worker.ShardWorker.run>` the thread-mode front end calls
in-process.  The tier is fork-only: a boot config holds live objects the
child inherits (a backend, or a document store whose documents are known
by ``id()``), which a ``spawn`` child would receive as pickled copies.

Compiled closures don't pickle, so the parent never ships compiled plans.
A :class:`~repro.querycalc.service.plans.QueryPlan` carries the generated
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..awb.xml_io import export_model_text
from ..querycalc.service.errors import RemoteQueryError
from ..querycalc.via_xquery import XQueryCalculusBackend
from ..xquery.errors import XQueryTimeoutError
from .partition import Route
from .worker import ShardWorker, WorkerConfig, dispatch, replica_backend, worker_main

__all__ = [
    "LocalHandle",
    "ProcessPool",
    "WorkerHandle",
    "boot_workers",
    "merge_partials",
    "scatter",
    "worker_stats",
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
    worker, and :meth:`wait` takes its boot reply.  An owner starts every
    handle before waiting on any (:func:`boot_workers`), so its workers
    boot at the same time; a respawn is start + wait on one handle.

    A lock is held across each send+recv pair, so the pipe never carries
    interleaved conversations.  A request that misses its deadline kills
    and respawns the worker (the pipe would otherwise hold a stale reply),
    surfacing as ``XQDY_TIMEOUT``; a worker that died mid-request is
    respawned too.  A respawn that failed to boot leaves no worker, and
    the next request boots one before it sends.
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
        if self.conn is not None:
            try:
                self.conn.send(("shutdown", -1, {}))
                self.conn.poll(2.0)
            except (BrokenPipeError, OSError):
                pass
        if self.process is not None:
            self.process.join(timeout=5.0)
        self.kill()


class LocalHandle:
    """One worker in this process, behind :class:`WorkerHandle`'s
    ``request(op, payload)`` interface.

    ``make_config()`` builds the worker once; each request runs under one
    lock through :func:`~repro.serving.worker.dispatch`, the same dispatch
    the process loop uses, and a failure raises the worker's own exception.
    Nothing crosses a pipe and nothing is respawned.
    """

    restarts = 0

    def __init__(self, shard: int, make_worker: Callable, make_config: Callable[[], object]):
        self.shard = shard
        self.worker = make_worker(make_config())
        self._lock = threading.Lock()

    def request(self, op: str, payload: dict):
        with self._lock:
            return dispatch(self.worker, op, payload)

    def wait(self) -> None:
        """The worker was built in the constructor: nothing to wait for."""

    def close(self) -> None:
        pass

    kill = close


def boot_workers(make_handle: Callable[[int], object], shards: int) -> list:
    """Start ``make_handle(shard)`` for every shard, then wait for each.

    Every worker is forked before any boot reply is read, so the workers
    boot concurrently and the tier is up after about one boot.  If any
    start or boot fails, every handle made so far is killed before the
    failure propagates: no sibling outlives it.
    """
    handles = []
    try:
        for shard in range(shards):
            handles.append(make_handle(shard))
        for handle in handles:
            handle.wait()
    except BaseException:
        for handle in handles:
            handle.kill()
        raise
    return handles


def scatter(executor: ThreadPoolExecutor, calls: Sequence[Callable]) -> list:
    """Run every call concurrently on *executor*; results in call order.

    The search tier fans each write out to every replica with it.  Every
    call is drained before a failure surfaces (the siblings' pipes must
    be quiet again before the next request), then the first failure in
    call order is re-raised.  A single call runs on the calling thread:
    there is nothing to overlap it with.
    """
    if len(calls) == 1:
        return [calls[0]()]
    futures = [executor.submit(call) for call in calls]
    results = []
    failure: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # keep draining: siblings must finish
            if failure is None:
                failure = exc
    if failure is not None:
        raise failure
    return results


def worker_stats(handles: Sequence[WorkerHandle]) -> List[Dict[str, object]]:
    """Each worker's own counters plus its handle's restart count."""
    workers = []
    for handle in handles:
        try:
            entry = handle.request("stats", {})
        except Exception as exc:
            entry = {"shard": handle.shard, "error": str(exc)}
        entry["restarts"] = handle.restarts
        workers.append(entry)
    return workers


class ProcessPool:
    """N shard workers, each answering whole queries over a full replica.

    Callers serialize :meth:`ensure_generation` and :meth:`apply_delta`
    (the calculus front end calls both under its backend's lock).  Every
    worker first boots by forking with *backend*, whose export and
    catalog the caller has built, so no worker parses anything.  A
    respawn must not fork the live model, which another thread may be
    halfway through updating: it boots from a backend built from an
    export of the live model, so it may boot one step ahead of
    :attr:`generation`: replaying that update's delta then fails (its ids
    already exist, and the pool refreshes) or changes nothing.  The front
    end sees the model generation move under the read and runs it again
    either way.
    """

    def __init__(self, backend: XQueryCalculusBackend, shards: int):
        self.model = backend.model
        self.shards = shards
        self.generation = backend.export_generation
        self.refreshes = 0
        self.deltas = 0
        #: the first boot forks every shard with the caller's backend; a
        #: respawn builds one from the live model.
        self._boot_backend: Optional[XQueryCalculusBackend] = backend
        self.handles = boot_workers(
            lambda shard: WorkerHandle(
                shard, ShardWorker, functools.partial(self._worker_config, shard)
            ),
            shards,
        )
        self._boot_backend = None
        self._closed = False

    def _worker_config(self, shard: int) -> WorkerConfig:
        backend = self._boot_backend or replica_backend(
            export_model_text(self.model, indent=False), self.model.metamodel
        )
        return WorkerConfig(shard=shard, backend=backend, generation=self.generation)

    # -- replica refresh ---------------------------------------------------

    def ensure_generation(self, generation: int) -> None:
        """Broadcast a replica refresh if the model moved past the pool."""
        if generation == self.generation:
            return
        payload = {
            "export_text": export_model_text(self.model, indent=False),
            "generation": generation,
        }
        for handle in self.handles:
            handle.request("refresh", dict(payload))
        self.generation = generation
        self.refreshes += 1

    def apply_delta(
        self,
        script_text: str,
        base_generation: int,
        new_generation: int,
        in_sync: bool = True,
    ) -> bool:
        """Broadcast one resolved update script instead of a full re-export.

        Workers replay the script against their live replicas (O(delta)
        per worker, versus the O(model) serialize + reparse of
        :meth:`ensure_generation`).  Preconditions for soundness: the pool
        must currently be at *base_generation* and the caller's model must
        have been in sync with its export when the script was applied —
        otherwise the replicas would replay the delta on top of state the
        primary never had.  When the preconditions fail, or any worker's
        replay fails, the pool falls back to the full-refresh path: the
        next :meth:`ensure_generation` rebuilds every replica.

        Returns True when the delta path was used.
        """
        if not in_sync or self.generation != base_generation:
            return False
        payload = {"script": script_text, "generation": new_generation}
        try:
            for handle in self.handles:
                handle.request("delta", dict(payload))
        except Exception:
            # a partial broadcast leaves the replicas mixed: poison the
            # pool generation so the next snapshot refreshes them all.
            self.generation = -1
            return False
        self.generation = new_generation
        self.deltas += 1
        return True

    # -- execution ---------------------------------------------------------

    def execute(self, route: Route, payload: dict) -> dict:
        """Send one ``run`` payload to the worker *route* names; its reply."""
        return self.handles[route.shard].request("run", payload, payload["remaining"])

    # -- observability / lifecycle ----------------------------------------

    def stats(self) -> Dict[str, object]:
        """Synchronous per-worker counters plus pool-level aggregates."""
        workers = worker_stats(self.handles)
        return {
            "mode": "process",
            "shards": self.shards,
            "generation": self.generation,
            "refreshes": self.refreshes,
            "deltas": self.deltas,
            "workers": workers,
            "runs": sum(w.get("runs", 0) for w in workers),
            "fallbacks": sum(w.get("fallbacks", 0) for w in workers),
            "restarts": sum(h.restarts for h in self.handles),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self.handles:
            handle.close()

    def __del__(self):  # best-effort: daemon workers die with the parent anyway
        try:
            self.close()
        except Exception:
            pass

