"""Plan normalization, the plan cache, and the one way to run a plan.

A *plan* is everything the service needs to execute one calculus query
repeatedly without re-doing per-query work: the generated XQuery source
and, in thread mode, its :class:`~repro.xquery.api.CompiledQuery`
(parsed, linted, optimized and lowered to the algebra).

Plans are keyed by the *normalized query text* — a canonical rendering of
the calculus AST — so two structurally identical queries parsed from
different XML files share one compiled plan.

:func:`run_compiled` evaluates a compiled plan for both halves of the
serving path, the thread-mode front end and the process-mode shard
worker, so the algebra→treewalk degradation is written once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ...xquery import TraceLog
from ...xquery.errors import XQueryError, XQueryTimeoutError
from ..ast import FilterProperty, FilterType, Follow, Query
from .errors import Deadline


def normalize_query(query: Query) -> str:
    """A canonical one-line text form of a calculus query.

    Structurally equal queries normalize identically; the text doubles as
    the plan- and result-cache key and as a human-readable plan name.
    """
    parts = []
    start = query.start
    if start.all_nodes:
        parts.append("start(*)")
    elif start.node_id is not None:
        parts.append(f"start(id={start.node_id!r})")
    else:
        parts.append(f"start(type={start.type!r})")
    for step in query.steps:
        if isinstance(step, Follow):
            target = repr(step.target_type) if step.target_type else "*"
            sub = "sub" if step.include_subrelations else "exact"
            parts.append(
                f"follow({step.relation!r},{step.direction},{target},{sub})"
            )
        elif isinstance(step, FilterType):
            parts.append(f"type({step.type!r})")
        elif isinstance(step, FilterProperty):
            parts.append(f"prop({step.name!r},{step.op},{step.value!r})")
        else:
            raise TypeError(f"unknown step {type(step).__name__}")
    collect = query.collect
    direction = "desc" if collect.descending else "asc"
    distinct = "distinct" if collect.distinct else "all"
    parts.append(f"collect({collect.sort_by!r},{direction},{distinct})")
    if query.trace is not None:
        # a traced query generates different XQuery, so it is a distinct plan
        parts.append(f"trace({query.trace!r})")
    return "|".join(parts)


@dataclass
class QueryPlan:
    """An executable plan for one normalized calculus query."""

    key: str
    query: Query
    #: generated XQuery source.
    source: Optional[str] = None
    #: compiled query, ready to ``run()`` (thread mode only).
    compiled: Optional[object] = None
    #: structural signature of the optimized module: position-independent,
    #: so structurally identical plans share result cache entries even when
    #: their calculus spellings differ.  Process mode learns it from the
    #: plan's first worker reply.
    result_key: Optional[str] = None
    #: the plan's :class:`~repro.querycalc.service.deps.DependencySet`,
    #: derived at build time — what its cached answers can depend on.
    deps: Optional[object] = None

    @property
    def cache_key(self) -> str:
        """The result-cache key: the optimized plan's signature when known."""
        return self.result_key if self.result_key is not None else self.key


def run_compiled(
    compiled,
    variables: Dict[str, object],
    deadline: Optional[Deadline],
    statistics,
    algebra_cache=None,
    before: Optional[Callable[[str], None]] = None,
) -> Tuple[Sequence, Tuple[str, ...]]:
    """Run *compiled* on its engine's backend; return (result, traces).

    Spec errors (timeouts included) surface as they are.  An *internal*
    error from the algebra is retried once on the treewalk reference
    backend — graceful degradation: correctness from the reference
    interpreter beats failing the request.  If the retry fails too, the
    original error surfaces, unless the budget ran out during the retry
    (then it is a timeout).

    ``before(backend)`` runs ahead of each attempt: the service hooks its
    fault injector there, and both callers count a fallback when the
    attempt's backend is not ``compiled.config.backend``.  ``statistics``
    and ``algebra_cache`` only steer the algebra.
    """
    primary = compiled.config.backend

    def attempt(backend: str) -> Tuple[Sequence, Tuple[str, ...]]:
        if before is not None:
            before(backend)
        if deadline is not None:
            deadline.check("evaluate")
        trace = TraceLog()
        result = compiled.run(
            variables=variables,
            trace=trace,
            backend=backend,
            deadline=deadline.at if deadline is not None else None,
            statistics=statistics,
            algebra_cache=algebra_cache,
        )
        if deadline is not None:
            deadline.check("materialize")
        return result, tuple(trace.messages)

    try:
        return attempt(primary)
    except XQueryError:
        raise
    except Exception as first:
        if primary == "treewalk":
            raise  # already on the reference backend: nothing to degrade to
        try:
            return attempt("treewalk")
        except XQueryTimeoutError:
            raise  # the budget ran out during the retry: that is a timeout
        except Exception:
            raise first


class PlanCache:
    """A small thread-safe LRU of :class:`QueryPlan` keyed by normalized text."""

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: str, build: Callable[[], QueryPlan]) -> QueryPlan:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
        # build outside the lock (compilation can be slow and is pure);
        # a concurrent duplicate build resolves in favour of the first.
        plan = build()
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return existing
            self.misses += 1
            if self.maxsize > 0:
                self._plans[key] = plan
                while len(self._plans) > self.maxsize:
                    self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "currsize": len(self._plans),
                "maxsize": self.maxsize,
            }
