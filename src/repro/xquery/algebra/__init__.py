"""The algebraic backend: set-at-a-time plans for the XQuery engine.

The paper's central complaint is *lopsidedness*: a language small enough to
write in an afternoon, implemented so naively that a two-line query is
"preposterously inefficient".  This package is the repository's answer —
the production backend, ``EngineConfig(backend="algebra")``:

* :mod:`.lowering` turns the parsed AST into a small logical algebra
  (index scans, twig hash joins, select/project, order-by, FLWOR tuple
  sources), leaving anything outside the fragment to the closure
  compiler (:mod:`repro.xquery.compiler`), which compiles the forms
  measured hot and hands every other form to the treewalk;
* :mod:`.optimize` is the rewrite/cost pass, fed by a
  :class:`~.stats.StatisticsCatalog` collected at export time;
* :mod:`.executor` interprets plans set-at-a-time, producing bit-identical
  XDM sequences (the differential fuzzer enforces this);
* :class:`AlgebraProgram` packages the three, and the closure compiler,
  for :class:`~repro.xquery.api.CompiledQuery`.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional, Tuple

from ...lru import LRU
from .. import ast
from ..compiler import Compiler, Thunk
from ..context import DynamicContext, EngineConfig
from ..errors import extended_stack
from .executor import ExecState, execute_plan
from .lowering import Lowerer
from .optimize import annotate_occurrences, optimize_plan
from .plans import EvalPlan, Plan
from .stats import DEFAULT_STATS, StatisticsCatalog

__all__ = [
    "AlgebraProgram",
    "StatisticsCatalog",
    "DEFAULT_STATS",
]


class AlgebraProgram:
    """A module lowered to a logical plan, ready for repeated execution.

    Built once per compiled query (lazily, under the query's lock) and
    reused across runs.  Construction only lowers: the first run (or
    explain) optimizes against the statistics catalog it brings, and a run
    bringing a different catalog re-optimizes.  Every optimizer decision is
    semantics-preserving, so executions racing a re-optimization stay
    correct.  The static-type pass never runs on this path; only
    :meth:`explain` computes occurrences, for its ``[occ=...]`` marks.
    """

    def __init__(
        self,
        module: ast.Module,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        self.module = module
        self.functions = functions
        self.config = config
        self.plan: Plan = Lowerer(functions, config).lower(module.body)
        #: whole-body fallback: nothing in the query lowered to algebra.
        self.trivial = isinstance(self.plan, EvalPlan)
        self._optimize_lock = threading.RLock()
        self._optimized_for: Optional[StatisticsCatalog] = None
        self._occurrences: Optional[Dict[int, str]] = None
        self._compiler: Optional[Compiler] = None
        self._thunks: Dict[int, Thunk] = {}
        self._compile_lock = threading.Lock()

    # -- the fallback evaluator -------------------------------------------

    def thunk(self, expr: ast.Expr) -> Thunk:
        """The closure for *expr*, the fallback's one evaluator, compiled on
        first use.  Keyed on the expression (a node of ``self.module``, so
        its id is stable), not the plan node: the optimizer rebuilds
        predicates and swaps join probes."""
        thunk = self._thunks.get(id(expr))
        if thunk is None:
            with self._compile_lock:
                thunk = self._thunks.get(id(expr))
                if thunk is None:
                    if self._compiler is None:
                        self._compiler = Compiler(self.functions, self.config)
                    thunk = self._thunks[id(expr)] = self._compiler.compile(expr)
        return thunk

    # -- optimization -----------------------------------------------------

    def occurrence_map(self) -> Dict[int, str]:
        """``id(ast expr) → occurrence`` for the exprs this plan references.

        Computed once per program, on its first explain, from the
        static-type pass (occurrences never depend on the catalog), and
        only for the handful of AST nodes the plan tree points at.
        """
        if self._occurrences is None:
            # lazy: the analysis package import chain reaches back here.
            from ..analysis.cardinality import iter_scoped, module_units
            from ..analysis.types import TypeAnalyzer, occurrence_indicator

            targets = set()
            stack = [self.plan]
            while stack:
                plan = stack.pop()
                expr = getattr(plan, "expr", None)
                if expr is not None:
                    targets.add(id(expr))
                for op in getattr(plan, "ops", ()):
                    clause = getattr(op, "clause", None)
                    for attr in ("source", "value"):
                        sub = getattr(clause, attr, None)
                        if sub is not None:
                            targets.add(id(sub))
                stack.extend(child for child in plan.children() if child is not None)
            analyzer = TypeAnalyzer(self.module)
            occurrences: Dict[int, str] = {}
            for _owner, root, env in module_units(self.module, analyzer):
                for expr, scope in iter_scoped(root, env, analyzer):
                    if id(expr) in targets and id(expr) not in occurrences:
                        occurrences[id(expr)] = occurrence_indicator(
                            analyzer.card(expr, scope)
                        )
            self._occurrences = occurrences
        return self._occurrences

    def optimize_for(self, statistics: Optional[StatisticsCatalog]) -> Plan:
        """(Re)run the cost pass if *statistics* changed since last time."""
        catalog = statistics or DEFAULT_STATS
        if self._optimized_for is not catalog:
            with self._optimize_lock:
                if self._optimized_for is not catalog:
                    optimize_plan(self.plan, catalog)
                    self._optimized_for = catalog
        return self.plan

    # -- execution --------------------------------------------------------

    def run(
        self,
        ctx: DynamicContext,
        statistics: Optional[StatisticsCatalog] = None,
        shared_cache: Optional[LRU] = None,
    ):
        if self.trivial:
            # the whole body fell back: run its closure with no
            # plan-interpretation overhead at all.
            return self.thunk(self.module.body)(ctx)
        plan = self.optimize_for(statistics)
        return execute_plan(plan, ctx, {}, ExecState(self.thunk, shared_cache))

    # -- explain ----------------------------------------------------------

    def explain(self, statistics: Optional[StatisticsCatalog] = None) -> dict:
        """The optimized plan as text and JSON, with estimated rows and the
        static-type pass's occurrences."""
        with extended_stack():
            occurrences = self.occurrence_map()
        # one lock across optimize, annotate and render: a run re-optimizing
        # for another catalog meanwhile would clear the marks mid-render.
        with self._optimize_lock:
            plan = self.optimize_for(statistics)
            annotate_occurrences(plan, occurrences)
            return {
                "backend": "algebra",
                "fallback": self.trivial,
                "text": "\n".join(plan.render()),
                "plan": plan.to_dict(),
            }

    def explain_text(self, statistics: Optional[StatisticsCatalog] = None) -> str:
        return self.explain(statistics)["text"]

    def explain_json(self, statistics: Optional[StatisticsCatalog] = None) -> str:
        return json.dumps(self.explain(statistics), indent=2, sort_keys=True)
