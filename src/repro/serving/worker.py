"""The shard worker: one process, one full model replica.

Each worker imports the model from the front-end's XML export (faithfully:
``apply_defaults=False``, so deleted default-valued properties stay
deleted), owns its own :class:`XQueryCalculusBackend` + engine compile LRU,
and evaluates whole calculus plans over its full replica — exact
single-process semantics.  The front-end sends each plan to one worker
(:func:`~repro.serving.partition.route_query`).

A reply carries the result's node ids in the engine's order and the trace
messages.  When the request sets ``want_signature`` the reply also
carries the plan's structural signature (the cross-process plan identity
the front-end's result cache keys on, about 2 KB pickled); the front-end
asks only until the plan knows it.

:func:`worker_main` is the request loop of every worker process in both
serving tiers; the search tier's
:class:`~repro.collections.worker.CollectionWorker` runs in it too.  It
serves each op through :func:`dispatch`, which the in-process handle
calls directly.

The module pre-imports every dependency at top level: under the ``fork``
start method a lazily-imported module could otherwise deadlock on an
import lock the parent held at fork time, and under ``spawn`` the child
needs them anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..awb.metamodel import Metamodel
from ..awb.xml_io import import_model_text
from ..querycalc.service.errors import Deadline, classify_error
from ..querycalc.service.plans import PlanCache, run_compiled
from ..querycalc.via_xquery import XQueryCalculusBackend
from ..xquery.updates.apply import apply_script
from ..xdm import ElementNode
from ..xquery import EngineConfig, XQueryEngine
from ..xquery import algebra  # noqa: F401  (the engine and backend load it lazily)

__all__ = ["WorkerConfig", "ShardWorker", "dispatch", "worker_main"]


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its replica (picklable)."""

    shard: int
    metamodel: Metamodel
    export_text: str
    generation: int
    plan_cache_size: int = 128


class ShardWorker:
    """The in-process half of one worker: replica, backend, plan cache."""

    #: the requests :func:`worker_main` dispatches to methods of this class.
    OPS = ("run", "refresh", "delta", "stats")

    def __init__(self, config: WorkerConfig):
        self.shard = config.shard
        self.metamodel = config.metamodel
        self.plan_cache_size = config.plan_cache_size
        self._plans = PlanCache(maxsize=config.plan_cache_size)
        self.runs = 0
        self.fallbacks = 0
        self.errors = 0
        self.deltas = 0
        self._load(config.export_text, config.generation)

    # -- replica lifecycle -------------------------------------------------

    def _load(self, export_text: str, generation: int) -> None:
        self.model = import_model_text(
            export_text, self.metamodel, apply_defaults=False
        )
        self.engine = XQueryEngine(EngineConfig(backend="algebra"))
        self.backend = XQueryCalculusBackend(self.model, engine=self.engine)
        self.generation = generation
        # build the export and its statistics catalog while booting, so the
        # first query on a fresh replica pays for neither.
        self.backend.statistics

    def refresh(self, payload: Dict) -> Dict[str, int]:
        """Swap in a new export generation (a full replica rebuild)."""
        # the plan cache survives: generated source depends only on the
        # metamodel, not the instance data.  Only the replica moves.
        plans = self._plans
        self._load(payload["export_text"], payload["generation"])
        self._plans = plans
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

    def run(self, payload: Dict) -> Dict:
        """Evaluate one plan over the full replica.

        ``payload`` carries: ``key`` (normalized plan key), ``source``
        (the generated XQuery text), ``remaining`` (seconds of wall-clock
        budget left, or None), and ``want_signature`` (put the plan
        signature in the reply).
        """
        self.runs += 1
        deadline = (
            Deadline.after(payload["remaining"])
            if payload.get("remaining") is not None
            else None
        )
        compiled = self._plans.get_or_build(
            payload["key"], lambda: self.engine.compile(payload["source"])
        )

        def before(backend: str) -> None:
            if backend != compiled.config.backend:
                self.fallbacks += 1

        result, traces = run_compiled(
            compiled,
            {"model": self.backend.export.document_element()},
            deadline,
            self.backend.statistics,
            before=before,
        )
        reply = {
            "ids": self._ids(result),
            "traces": traces,
            "shard": self.shard,
            "generation": self.generation,
        }
        if payload.get("want_signature"):
            reply["signature"] = compiled.plan_signature
        return reply

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

    def stats(self, payload: Optional[Dict] = None) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "generation": self.generation,
            "runs": self.runs,
            "fallbacks": self.fallbacks,
            "errors": self.errors,
            "deltas": self.deltas,
            "plans": self._plans.stats(),
            "compile_cache": self.engine.cache_info(),
            "export": self.backend.export_stats(),
        }


def dispatch(worker, op: str, payload):
    """Run one request op on *worker*: the method its op names, which takes
    the payload dict.  Both handle kinds serve requests through this, the
    process loop below and the in-process
    :class:`~repro.serving.pool.LocalHandle`."""
    try:
        if op not in worker.OPS:
            raise ValueError(f"unknown worker op {op!r}")
        return getattr(worker, op)(payload)
    except Exception:
        worker.errors += 1
        raise


def worker_main(conn, make_worker, config) -> None:
    """A worker process's entry point: the request loop over one Pipe end.

    Both serving tiers run this loop: ``make_worker(config)`` builds a
    :class:`ShardWorker` or a
    :class:`~repro.collections.worker.CollectionWorker`, and each request
    goes through :func:`dispatch`.

    Protocol: the parent sends ``(op, req_id, payload)`` tuples and the
    worker replies ``("ok", req_id, result)`` or ``("err", req_id,
    QueryError)``; ``op`` is one of the worker's ``OPS`` or ``shutdown``.
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
            conn.send(("ok", req_id, dispatch(worker, op, payload)))
        except Exception as exc:
            key = payload.get("key") if isinstance(payload, dict) else None
            try:
                conn.send(("err", req_id, classify_error(exc, key)))
            except (BrokenPipeError, OSError):
                break
    conn.close()
