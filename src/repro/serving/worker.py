"""The shard worker: the one place a calculus plan runs, in both modes.

A :class:`ShardWorker` compiles a plan's generated source, evaluates it
over its backend's export (the algebra, retried once on the treewalk
after an internal error) and turns the result into node ids.  The
compiled program is dropped with the run: the front end caches the plan
(its source) and the answer, so every worker compiles on an engine of
its own, built from the front end's :class:`~repro.xquery.EngineConfig`
with no compile cache, and a served plan leaves no compiled program
behind.
:class:`~repro.querycalc.service.QueryService` sends every plan here as
one ``{key, source, remaining}`` payload:

* in **process mode** to the worker process the plan's key routes to
  (:func:`~repro.serving.partition.route_query`).  Each holds a full
  model replica: workers are forked, so each adopts a private
  copy-on-write copy of the front end's backend and parses nothing at
  boot; a respawn or a ``refresh`` builds one from an export of the live
  model (:func:`replica_backend`; faithfully, ``apply_defaults=False``,
  so deleted default-valued properties stay deleted);
* in **thread mode** to one in-process worker that adopts the front
  end's own backend and fault injector, called directly from
  many threads with no handle and no lock, so :meth:`ShardWorker.run`
  is reentrant.

Either way the worker keeps one shared-scan cache per export generation,
an unbounded :class:`~repro.lru.LRU`, so plans over one snapshot share
their scans and join builds; ``stats()["algebra_cache"]`` reports its
``{hits, misses, races, currsize, maxsize}``.

A reply carries the result's node ids in the engine's order, the trace
messages and whether the run fell back to the treewalk.  The front end
keys its result cache on the plan's generated source, which it sent, so
nothing else comes back.

:func:`worker_main` is the request loop of every worker process in both
serving tiers; the search tier's
:class:`~repro.collections.worker.CollectionWorker` runs in it too.

The serving tier is fork-only: a boot config holds live objects (a
backend here, a document store in the search tier) that the child
inherits rather than unpickles.  The module pre-imports every dependency
at top level, so a lazily-imported module cannot deadlock on an import
lock the parent held at fork time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..awb.metamodel import Metamodel
from ..awb.xml_io import import_model_text
from ..lru import LRU
from ..querycalc.service.errors import Deadline, classify_error
from ..querycalc.service.faults import FaultInjector
from ..querycalc.via_xquery import XQueryCalculusBackend
from ..xquery.updates.apply import apply_script
from ..xdm import ElementNode
from ..xquery import EngineConfig, TraceLog, XQueryEngine
from ..xquery.errors import XQueryError, XQueryTimeoutError

__all__ = ["WorkerConfig", "ShardWorker", "replica_backend", "worker_main"]


def replica_backend(export_text: str, metamodel: Metamodel) -> XQueryCalculusBackend:
    """A backend over a faithful import of *export_text*, with its export
    and statistics catalog built, so no query on it pays for either."""
    backend = XQueryCalculusBackend(
        import_model_text(export_text, metamodel, apply_defaults=False)
    )
    backend.statistics
    return backend


def worker_engine(config: EngineConfig) -> XQueryEngine:
    """A worker's own engine: *config* with no compile cache, since the
    front end caches answers, not programs."""
    return XQueryEngine(replace(config, compile_cache_size=0))


@dataclass
class WorkerConfig:
    """Everything a worker needs to hold its replica."""

    shard: int
    #: the replica: a model, its export and its statistics catalog.  A
    #: forked worker adopts its own copy-on-write copy; the in-process
    #: worker adopts the front end's.
    backend: XQueryCalculusBackend
    generation: int
    #: the front end's engine configuration, which the worker's own
    #: uncached engine copies.
    engine: EngineConfig
    #: hooked ahead of every evaluation attempt (the in-process worker).
    faults: Optional[FaultInjector] = None


class ShardWorker:
    """The in-process half of one worker: replica, engine, shared scans."""

    #: the requests :func:`worker_main` dispatches to methods of this class.
    OPS = ("run", "refresh", "delta", "stats")

    def __init__(self, config: WorkerConfig):
        self.shard = config.shard
        self.engine = worker_engine(config.engine)
        self.faults = config.faults
        self.runs = 0
        self.fallbacks = 0
        self.errors = 0
        self.deltas = 0
        self._adopt(config.backend, config.generation)

    # -- replica lifecycle -------------------------------------------------

    def _adopt(self, backend: XQueryCalculusBackend, generation: int) -> None:
        self.backend = backend
        self.model = backend.model
        self.generation = generation
        #: ``(export generation, unbounded LRU of shared scans)``, replaced
        #: when the generation moves.
        self._shared: Optional[tuple] = None

    def refresh(self, payload: Dict) -> Dict[str, int]:
        """Swap in a new export generation (a full replica rebuild)."""
        self._adopt(
            replica_backend(payload["export_text"], self.model.metamodel),
            payload["generation"],
        )
        return {"generation": self.generation}

    def delta(self, payload: Dict) -> Dict[str, int]:
        """Replay ``payload["script"]``, one resolved update script, against
        the live replica and move to ``payload["generation"]``.

        The primary already checked the script and resolved auto-assigned
        ids, so the replay is ``check="off"`` and deterministic: the same
        create/connect/remove/retype calls land here as landed on the
        primary, the replica's incremental exporter patches the same
        subtrees, and the next query sees a byte-identical export —
        without the O(model) serialize/reparse of a full refresh.
        """
        apply_script(payload["script"], self.model, check="off")
        self.generation = payload["generation"]
        self.deltas += 1
        return {"generation": self.generation}

    # -- evaluation --------------------------------------------------------

    def _scan_state(self):
        """``(export root, statistics catalog, shared-scan cache)`` as of
        now, read under the backend's lock: reading either may patch the
        export, which must not interleave with an update."""
        backend = self.backend
        with backend.lock:
            root = backend.export.document_element()
            statistics = backend.statistics
            generation = backend.export_generation
            if self._shared is None or self._shared[0] != generation:
                self._shared = (generation, LRU(None))
            return root, statistics, self._shared[1]

    def run(self, payload: Dict) -> Dict:
        """Compile, evaluate and turn one plan into ids.

        ``payload`` carries: ``key`` (normalized plan key), ``source``
        (the generated XQuery text) and ``remaining`` (seconds of
        wall-clock budget left, or None).

        Spec errors (timeouts included) surface as they are.  An
        *internal* error from the algebra is retried once on the treewalk
        reference backend: correctness from the reference interpreter
        beats failing the request.  If the retry fails too, the original
        error surfaces, unless the budget ran out during the retry (then
        it is a timeout); either way it carries ``fell_back = True``.
        """
        self.runs += 1
        key = payload["key"]
        remaining = payload.get("remaining")
        deadline = Deadline.after(remaining) if remaining is not None else None
        compiled = self.engine.compile(payload["source"])
        root, statistics, shared = self._scan_state()
        primary = compiled.config.backend

        def attempt(backend: str) -> Dict:
            if self.faults is not None:
                self.faults.on_evaluate(key, deadline, backend=backend)
            if deadline is not None:
                deadline.check("evaluate")
            trace = TraceLog()
            result = compiled.run(
                variables={"model": root},
                trace=trace,
                backend=backend,
                deadline=deadline.at if deadline is not None else None,
                statistics=statistics,
                algebra_cache=shared,
            )
            if deadline is not None:
                deadline.check("materialize")
            return {
                "ids": self._ids(result),
                "traces": tuple(trace.messages),
                "fallback": backend != primary,
                "shard": self.shard,
                "generation": self.generation,
            }

        try:
            return attempt(primary)
        except XQueryError:
            raise
        except Exception as first:
            if primary == "treewalk":
                raise  # already on the reference backend: nothing to degrade to
            self.fallbacks += 1
            try:
                return attempt("treewalk")
            except XQueryTimeoutError as late:
                error = late  # the budget ran out during the retry
            except Exception:
                error = first
            error.fell_back = True
            raise error

    @staticmethod
    def _ids(result) -> List[str]:
        """The ``id`` of each ``<node>`` in the result, in engine order."""
        ids: List[str] = []
        for item in result:
            if isinstance(item, ElementNode):
                node_id = item.get_attribute("id")
                if node_id is not None:
                    ids.append(node_id)
        return ids

    def shared_scans(self) -> Optional[Dict[str, int]]:
        """The current generation's shared-scan counters (None before the
        first run)."""
        shared = self._shared
        return shared[1].stats() if shared is not None else None

    def stats(self, payload: Optional[Dict] = None) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "generation": self.generation,
            "runs": self.runs,
            "fallbacks": self.fallbacks,
            "errors": self.errors,
            "deltas": self.deltas,
            "compile_cache": self.engine.cache_info(),
            "algebra_cache": self.shared_scans(),
            "export": self.backend.export_stats(),
        }


def worker_main(conn, make_worker, config) -> None:
    """A worker process's entry point: the request loop over one Pipe end.

    Both serving tiers run this loop: ``make_worker(config)`` builds a
    :class:`ShardWorker` or a
    :class:`~repro.collections.worker.CollectionWorker`, and each request
    runs the worker method its op names, which takes the payload dict.

    Protocol: the parent sends ``(op, req_id, payload)`` tuples and the
    worker replies ``("ok", req_id, result)`` or ``("err", req_id,
    QueryError)``; ``op`` is one of the worker's ``OPS`` or ``shutdown``.
    A failed op counts in the worker's ``errors``.
    """
    try:
        worker = make_worker(config)
        conn.send(("ok", "boot", {"shard": worker.shard}))
    except Exception as exc:  # a broken boot must still answer the parent
        conn.send(("err", "boot", classify_error(exc)))
        conn.close()
        return
    while True:
        try:
            op, req_id, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            conn.send(("ok", req_id, {}))
            break
        try:
            if op not in worker.OPS:
                raise ValueError(f"unknown worker op {op!r}")
            conn.send(("ok", req_id, getattr(worker, op)(payload)))
        except Exception as exc:
            worker.errors += 1
            key = payload.get("key") if isinstance(payload, dict) else None
            try:
                conn.send(("err", req_id, classify_error(exc, key)))
            except (BrokenPipeError, OSError):
                break
    conn.close()
