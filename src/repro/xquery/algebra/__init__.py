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
* :mod:`.optimize` is ``explain``'s estimate pass, fed by a
  :class:`~.stats.StatisticsCatalog` collected on demand; the plan that
  runs is fixed at lowering and never reads statistics;
* :mod:`.executor` interprets plans set-at-a-time, producing bit-identical
  XDM sequences (the differential fuzzer enforces this);
* :class:`AlgebraProgram` packages the three, and the closure compiler,
  for :class:`~repro.xquery.api.CompiledQuery`.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ...lazy import lazy_exports
from ...lru import LRU
from .. import ast
from ..compiler import Compiler, Thunk
from ..context import DynamicContext, EngineConfig
from ..errors import extended_stack
from .executor import ExecState, execute_plan
from .lowering import Lowerer
from .plans import EvalPlan, Plan

if TYPE_CHECKING:
    from .stats import StatisticsCatalog

__all__ = [
    "AlgebraProgram",
    "StatisticsCatalog",
    "DEFAULT_STATS",
]

# only explain reads statistics, so a plan that only runs never loads them.
__getattr__, __dir__ = lazy_exports(
    __name__, {"StatisticsCatalog": ".stats", "DEFAULT_STATS": ".stats"}
)


class AlgebraProgram:
    """A module lowered to a logical plan, ready for repeated execution.

    Built once per compiled query (lazily, under the query's lock) and
    reused across runs.  Construction lowers, and the plan it lowers to is
    the plan every run executes.  Neither statistics nor the static-type
    pass run on this path: :meth:`explain` alone estimates rows against a
    catalog and computes occurrences, for its ``[occ=...]`` marks.
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
        self._explain_lock = threading.Lock()
        self._occurrences: Optional[Dict[int, str]] = None
        #: built on the first closure a run asks for: most calculus plans
        #: never ask.
        self._compiler: Optional[Compiler] = None
        self._compiler_lock = threading.Lock()

    # -- the fallback evaluator -------------------------------------------

    def thunk(self, expr: ast.Expr) -> Thunk:
        """The closure for *expr*, the fallback's one evaluator, from the
        compiler's one memo (:meth:`Compiler.thunk`).  Keyed on the
        expression, not the plan node: the executor wraps a join key in a
        predicate of its own."""
        compiler = self._compiler
        if compiler is None:
            with self._compiler_lock:
                if self._compiler is None:
                    self._compiler = Compiler(self.functions, self.config)
            compiler = self._compiler
        return compiler.thunk(expr)

    # -- occurrences, for explain ----------------------------------------

    def occurrence_map(self) -> Dict[int, str]:
        """``id(ast expr) → occurrence`` for the exprs this plan references.

        Computed once per program, on its first explain, from the
        static-type pass (occurrences never depend on the catalog), and
        only for the handful of AST nodes the plan tree points at.
        """
        if self._occurrences is None:
            # imported here: only explain reads occurrences, so a plan that
            # only runs never loads the type pass.
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

    # -- execution --------------------------------------------------------

    def run(self, ctx: DynamicContext, shared_cache: Optional[LRU] = None):
        if self.trivial:
            # the whole body fell back: run its closure with no
            # plan-interpretation overhead at all.
            return self.thunk(self.module.body)(ctx)
        return execute_plan(self.plan, ctx, {}, ExecState(self.thunk, shared_cache))

    # -- explain ----------------------------------------------------------

    def explain(self, statistics: Optional["StatisticsCatalog"] = None) -> dict:
        """The plan as text and JSON, with rows estimated against
        *statistics* (``DEFAULT_STATS`` if None) and the static-type pass's
        occurrences."""
        from .optimize import annotate_occurrences, estimate_plan

        with extended_stack():
            occurrences = self.occurrence_map()
        # the marks live on the shared plan: one lock across estimate,
        # annotate and render keeps a concurrent explain over another
        # catalog from rewriting them mid-render.  Runs never read them.
        with self._explain_lock:
            estimate_plan(self.plan, statistics)
            annotate_occurrences(self.plan, occurrences)
            return {
                "backend": "algebra",
                "fallback": self.trivial,
                "text": "\n".join(self.plan.render()),
                "plan": self.plan.to_dict(),
            }

    def explain_text(self, statistics: Optional["StatisticsCatalog"] = None) -> str:
        return self.explain(statistics)["text"]

    def explain_json(self, statistics: Optional["StatisticsCatalog"] = None) -> str:
        return json.dumps(self.explain(statistics), indent=2, sort_keys=True)
