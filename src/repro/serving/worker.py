"""The shard worker: one process, one full model replica, one start partition.

Each worker imports the model from the front-end's XML export (faithfully:
``apply_defaults=False``, so deleted default-valued properties stay
deleted), owns its own :class:`XQueryCalculusBackend` + engine compile LRU,
and answers two kinds of evaluation request:

``full``
    evaluate the unsharded plan over the whole replica — exact
    single-process semantics.  The front-end routes here when the
    statistics catalog *proves* the query touches one partition.
``shard``
    evaluate the sharded plan (start set filtered by an external
    variable) bound to the type names this worker owns.  The front-end
    merges the per-shard partials by ``(sort key, id)``.

Everything the parent needs for the merge rides back in the reply:
``(sort_key, node_id)`` pairs in the worker's result order and trace
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
from typing import Dict, List, Optional, Tuple

from ..awb.metamodel import Metamodel
from ..awb.xml_io import import_model_text
from ..querycalc.service.errors import Deadline, classify_error
from ..querycalc.service.plans import PlanCache, run_compiled
from ..querycalc.via_xquery import SHARD_TYPES, XQueryCalculusBackend
from ..xquery.updates.apply import apply_script
from ..xdm import ElementNode
from ..xquery import EngineConfig, XQueryEngine
from ..xquery import algebra  # noqa: F401  (the engine and backend load it lazily)
from .partition import owned_types

__all__ = ["WorkerConfig", "ShardWorker", "dispatch", "worker_main"]


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its replica (picklable)."""

    shard: int
    shards: int
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
        self.shards = config.shards
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
        self._own()
        # build the export and its statistics catalog while booting, so the
        # first query on a fresh replica pays for neither.
        self.backend.statistics

    def _own(self) -> None:
        """Recompute the type names this shard owns in its replica."""
        self.owned = owned_types(
            self.shard,
            self.shards,
            (node.type_name for node in self.model.nodes.values()),
        )

    def refresh(self, payload: Dict) -> Dict[str, int]:
        """Swap in a new export generation (a full replica rebuild)."""
        # the plan cache survives: generated source depends only on the
        # metamodel, not the instance data.  Only the replica moves.
        plans = self._plans
        self._load(payload["export_text"], payload["generation"])
        self._plans = plans
        return {"generation": self.generation, "owned": len(self.owned)}

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
        # membership may have moved (inserts/deletes/retypes): recompute
        # this shard's ownership the same way a full load would.
        self._own()
        self.deltas += 1
        return {"generation": self.generation, "owned": len(self.owned)}

    # -- evaluation --------------------------------------------------------

    def run(self, payload: Dict) -> Dict:
        """Evaluate one request.

        ``payload`` carries: ``key`` (normalized plan key), ``source``
        (XQuery text — full or sharded variant), ``variant`` ("full" |
        "shard"), ``sort_property`` (for merge-key extraction),
        ``remaining`` (seconds of wall-clock budget left, or None), and
        ``want_signature`` (put the plan signature in the reply).
        """
        self.runs += 1
        key = payload["key"]
        variant = payload["variant"]
        deadline = (
            Deadline.after(payload["remaining"])
            if payload.get("remaining") is not None
            else None
        )
        plan_key = f"{variant}:{key}"
        compiled = self._plans.get_or_build(
            plan_key, lambda: self.engine.compile(payload["source"])
        )
        variables: Dict[str, object] = {
            "model": self.backend.export.document_element()
        }
        if variant == "shard":
            variables[SHARD_TYPES] = list(self.owned)

        def before(backend: str) -> None:
            if backend != compiled.config.backend:
                self.fallbacks += 1

        result, traces = run_compiled(
            compiled, variables, deadline, self.backend.statistics, before=before
        )
        reply = {
            "rows": self._rows(result, payload.get("sort_property", "")),
            "traces": traces,
            "shard": self.shard,
            "generation": self.generation,
        }
        if payload.get("want_signature"):
            reply["signature"] = compiled.plan_signature
        return reply

    def _rows(self, result, sort_property: str) -> List[Tuple[str, str]]:
        """(sort key, node id) pairs, in the engine's result order.

        The sort key is exactly what the generated ``order by`` computed —
        ``string($result/property[@name eq "<prop>"])`` — so the
        front-end's merge sorts per-shard partials by the same key the
        per-shard sort used.
        """
        rows: List[Tuple[str, str]] = []
        for item in result:
            if not isinstance(item, ElementNode):
                continue
            node_id = item.get_attribute("id")
            if node_id is None:
                continue
            key = ""
            for child in item.child_elements("property"):
                if child.get_attribute("name") == sort_property:
                    key = child.string_value()
                    break
            rows.append((key, node_id))
        return rows

    def stats(self, payload: Optional[Dict] = None) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "generation": self.generation,
            "owned": len(self.owned),
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
