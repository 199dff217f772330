"""Lowering: parsed AST -> logical algebra, with closure-compiler fallback.

The lowering pass is deliberately conservative.  It recognizes the
FLWOR/path fragment the calculus compiler emits (scans over the
``ElementNode`` name indexes, attribute-equality twig joins, positional
predicates, ``order by`` over string keys) and lowers everything else to an
:class:`~.plans.EvalPlan` leaf — a subtree the set-at-a-time executor hands
verbatim to the closure compiler, which matches the tree-walking reference
bit for bit.  A construct is only specialized when the rewrite is provably
observation-equivalent, *including errors and ``fn:trace`` output*: the
differential fuzzer treats any drift as a bug, mirroring how the paper
treats Galax's optimizer bugs.

The plan that runs is fixed here: no statistics steer it.  Within each
step, runs of compiled attribute filters are ordered by one fixed rule
(:func:`_ordered`), and a join hashes on the first equi-predicate it
finds.  Statistics only feed the estimates ``explain`` prints
(:mod:`.optimize`).

Safety gates worth naming (each one is a place a faster-but-wrong rewrite
was rejected):

* a scan is only memoized/shared when all of its step predicates are
  compiled fast predicates — closed, pure, and unable to call user
  functions (whose recursion-depth accounting would otherwise leak between
  cache hits);
* a hash join's probe runs once per tuple instead of once per candidate
  item, so :class:`~..optimizer.Effects`, the one evaluate-once rule, must
  find nothing in it: no read of the focus and no ``fn:trace`` or
  ``fn:error``, through user-function calls too.  A ``for`` source that
  observes no tuple variable is hoisted under the same rule, except that
  it may read the focus, which one FLWOR evaluation does not change;
* ``where`` clauses are never pushed across ``for`` clauses: XQuery's
  ordered, error-strict semantics make tuple order observable through
  ``fn:error``/``fn:trace``, which is exactly the "lopsided" constraint the
  paper's optimizer section complains about;
* user functions inline only when non-recursive and free of declared types
  that would require runtime checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import ast
from ..compiler import (
    AttrExistsPred,
    AttrMembershipPred,
    AttrValueEqPred,
    GenericPred,
    PositionalPred,
    Predicate,
    _attr_step_name,
    _string_literal,
    classify_predicates,
    path_pairs,
)
from ..context import EngineConfig
from ..functions import resolve_call
from ..optimizer import Effects, free_variables
from .plans import (
    BuiltinCallPlan,
    EvalPlan,
    FilterPlan,
    FLWORPlan,
    ForJoinOp,
    ForOp,
    FullTextScanPlan,
    InlineCallPlan,
    LetOp,
    LiteralPlan,
    OrderOp,
    PathPlan,
    Plan,
    SequencePlan,
    SetOpPlan,
    StepPlan,
    StringFnPlan,
    VarPlan,
    WhereOp,
)

__all__ = ["Lowerer", "RESULT_VAR"]

#: Synthetic variable used when a FLWOR's return path becomes a join.
#: ``#`` cannot appear in a parsed variable name, so it never collides.
RESULT_VAR = "#result"

_ORDERED_PREDS = (AttrMembershipPred, AttrValueEqPred, AttrExistsPred)
_FAST_PREDS = _ORDERED_PREDS + (PositionalPred,)


class Lowerer:
    """Lowers one module's body (and inlined function bodies) to plans."""

    def __init__(
        self,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        self.functions = functions
        self.config = config
        self.effects = Effects(functions)
        self._inline_stack: List[ast.FunctionDecl] = []

    # -- entry points -----------------------------------------------------

    def lower(self, expr: ast.Expr) -> Plan:
        if isinstance(expr, ast.Literal):
            return LiteralPlan([expr.value])
        if isinstance(expr, ast.EmptySequence):
            return LiteralPlan([])
        if isinstance(expr, ast.VarRef):
            return VarPlan(expr)
        if isinstance(expr, ast.SequenceExpr):
            return SequencePlan([self.lower(item) for item in expr.items])
        if isinstance(expr, ast.SetOp):
            return SetOpPlan(expr, self.lower(expr.left), self.lower(expr.right))
        if isinstance(expr, ast.PathExpr):
            return self._lower_path(expr)
        if isinstance(expr, ast.FilterExpr):
            return self._lower_filter(expr)
        if isinstance(expr, ast.FLWOR):
            return self._lower_flwor(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._lower_call(expr)
        return EvalPlan(expr)

    # -- paths ------------------------------------------------------------

    def _lower_path(self, expr: ast.PathExpr) -> Plan:
        lead, pairs = path_pairs(expr)
        base = None if lead is None else self.lower(lead)
        steps: List[StepPlan] = []
        for separator, step in pairs:
            if not isinstance(step, ast.AxisStep):
                # e.g. $x/data(.) — outside the algebra's path fragment.
                return EvalPlan(expr, "non-axis path step")
            predicates = classify_predicates(step.predicates, self.functions, self.effects)
            if self.config.duplicate_attribute_mode != "keep":
                # an element with two same-name attributes makes `@a eq`
                # raise, so its filters must run in the order written
                _ordered(predicates)
            closed = all(isinstance(p, _FAST_PREDS) for p in predicates)
            steps.append(StepPlan(step, separator, predicates, closed))
        if not steps and base is not None:
            return base
        plan = PathPlan(expr, expr.anchor, base, steps)
        plan.cacheable = bool(steps) and all(step.closed for step in steps)
        if plan.cacheable:
            plan.scan_key = tuple(step.key() for step in steps)
        return plan

    def _lower_filter(self, expr: ast.FilterExpr) -> Plan:
        return FilterPlan(
            expr,
            self.lower(expr.base),
            classify_predicates(expr.predicates, self.functions, self.effects),
        )

    # -- FLWOR ------------------------------------------------------------

    def _lower_flwor(self, expr: ast.FLWOR) -> Plan:
        ops = []
        bound: Set[str] = set()
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                ops.append(self._lower_for(clause, bound))
                bound.add(clause.var)
                if clause.position_var is not None:
                    bound.add(clause.position_var)
            elif isinstance(clause, ast.LetClause):
                ops.append(LetOp(clause, self.lower(clause.value)))
                bound.add(clause.var)
            elif isinstance(clause, ast.WhereClause):
                ops.append(WhereOp(clause.condition, self.lower(clause.condition)))
            elif isinstance(clause, ast.OrderByClause):
                specs = [
                    (self.lower(spec.key), spec.descending, spec.empty_least)
                    for spec in clause.specs
                ]
                ops.append(OrderOp(clause, specs))
        result_plan = self.lower(expr.result)
        # `return base/...[@a eq $v]` is `for $#result in base/... return
        # $#result`: tuple expansion preserves order, so the return path can
        # join like any other for clause.
        if isinstance(result_plan, PathPlan):
            clause = ast.ForClause(
                var=RESULT_VAR,
                position_var=None,
                source=expr.result,
                line=expr.result.line,
                column=expr.result.column,
            )
            join = self._try_join(clause, result_plan, bound)
            if join is not None:
                ops.append(join)
                result_plan = VarPlan(ast.VarRef(name=RESULT_VAR))
        return FLWORPlan(expr, ops, result_plan, expr.result)

    def _lower_for(self, clause: ast.ForClause, bound: Set[str]):
        source_plan = self.lower(clause.source)
        if isinstance(source_plan, PathPlan):
            join = self._try_join(clause, source_plan, bound)
            if join is not None:
                return join
        # the first clause (nothing bound yet) observes no tuple variable,
        # and the focus is the same for every tuple of one evaluation
        observes = bound and free_variables(clause.source) & bound
        invariant = not observes and not (self.effects.of(clause.source) - {"focus"})
        return ForOp(clause, source_plan, invariant)

    # -- join detection ---------------------------------------------------

    def _try_join(
        self, clause: ast.ForClause, scan: PathPlan, bound: Set[str]
    ) -> Optional[ForJoinOp]:
        """Recognize ``for $v in base/...[@attr (eq|=) probe]`` as a join.

        The scan up to the join predicate must be memoizable (fast
        predicates only, element-producing last step) and the probe must be
        correlated with the tuple stream and safe to evaluate once per
        tuple: :class:`~..optimizer.Effects` finds nothing in it.
        """
        if not bound or not scan.steps:
            return None
        last = scan.steps[-1]
        if last.axis == "attribute" or last.test.kind != "name":
            # the hash build indexes ElementNode attributes; a name test on
            # a non-attribute axis is what guarantees element candidates.
            return None
        if not all(step.closed for step in scan.steps[:-1]):
            return None
        for index, pred in enumerate(last.predicates):
            if not all(
                isinstance(p, _FAST_PREDS) for p in last.predicates[:index]
            ):
                break
            if not isinstance(pred, GenericPred):
                continue
            found = self._join_condition(pred.expr, bound)
            if found is None:
                continue
            attr, probe, style = found
            residual = last.predicates[index + 1 :]
            build_preds = last.predicates[:index]
            build_step = StepPlan(last.expr, last.separator, build_preds, True)
            build_scan = PathPlan(
                scan.expr, scan.anchor, scan.base, scan.steps[:-1] + [build_step]
            )
            # every build step is closed, so every build is memoized
            build_scan.cacheable = True
            build_scan.scan_key = tuple(s.key() for s in build_scan.steps)
            return ForJoinOp(clause, build_scan, attr, probe, style, residual, pred.expr)
        return None

    def _join_condition(
        self, pred: ast.Expr, bound: Set[str]
    ) -> Optional[Tuple[str, ast.Expr, str]]:
        """Split an equi-comparison into (build attribute, probe expr, style)."""
        if not isinstance(pred, ast.Comparison):
            return None
        if pred.style == "value" and pred.op == "eq":
            style = "value"
        elif pred.style == "general" and pred.op == "=":
            style = "general"
        else:
            return None
        for attr_side, probe in ((pred.left, pred.right), (pred.right, pred.left)):
            attr = _attr_step_name(attr_side)
            if attr is None:
                continue
            if not (free_variables(probe) & bound):
                continue
            if self.effects.of(probe):
                continue
            return attr, probe, style
        return None

    # -- function calls ---------------------------------------------------

    def _lower_call(self, expr: ast.FunctionCall) -> Plan:
        callee = resolve_call(expr, self.functions)
        if callee.kind == "user":
            return self._lower_user_call(expr, callee.declaration)
        if callee.kind != "builtin":
            return EvalPlan(expr)
        name, builtin = callee.name, callee.builtin
        if name == "string" and len(expr.args) == 1:
            arg = self.lower(expr.args[0])
            if not isinstance(arg, EvalPlan):
                return StringFnPlan(expr, name, builtin, [arg])
        if name == "ft:search" and len(expr.args) in (1, 2):
            # the indexed full-text scan: same builtin, surfaced as a scan
            # operator so explain can estimate hits from the
            # collection catalog (df of the rarest phrase token).
            args = [self.lower(arg) for arg in expr.args]
            literals = [_string_literal(arg) for arg in expr.args]
            if len(expr.args) == 1:
                collection, phrase = "", literals[0]
            else:
                collection, phrase = literals
            return FullTextScanPlan(expr, name, builtin, args, collection, phrase)
        if expr.args:
            args = [self.lower(arg) for arg in expr.args]
            if any(not isinstance(arg, EvalPlan) for arg in args):
                # args run in order through the executor, then the builtin
                # is invoked exactly as the evaluator would — pass-through.
                return BuiltinCallPlan(expr, name, builtin, args)
        return EvalPlan(expr)

    def _lower_user_call(
        self, expr: ast.FunctionCall, declaration: ast.FunctionDecl
    ) -> Plan:
        if any(declaration is frame for frame in self._inline_stack):
            return EvalPlan(expr, "recursive call")
        if self.config.type_check_calls and (
            declaration.return_type is not None
            or any(param.declared_type is not None for param in declaration.params)
        ):
            return EvalPlan(expr, "typed signature")
        self._inline_stack.append(declaration)
        try:
            body = self.lower(declaration.body)
        finally:
            self._inline_stack.pop()
        if isinstance(body, EvalPlan):
            return EvalPlan(expr)
        args = [self.lower(arg) for arg in expr.args]
        return InlineCallPlan(expr, declaration, args, body)


# -- predicate order -----------------------------------------------------


def _prior(pred: Predicate) -> float:
    """The fixed selectivity prior a compiled attribute filter sorts by."""
    if isinstance(pred, AttrValueEqPred):
        return 0.1
    if isinstance(pred, AttrMembershipPred):
        return min(1.0, 0.1 * max(len(pred.values), 1))
    return 0.8  # AttrExistsPred


def _ordered(predicates: List[Predicate]) -> List[Predicate]:
    """*predicates* with each run of compiled attribute filters sorted most
    selective first by :func:`_prior` (stably).  Filters in a run are pure
    and position-free, so they commute unless an element carries two
    same-name attributes (``keep`` mode, where lowering does not call this);
    a positional or generic predicate ends a run, since positions renumber
    between predicates."""
    run_start = 0
    for index in range(len(predicates) + 1):
        if index < len(predicates) and isinstance(predicates[index], _ORDERED_PREDS):
            continue
        if index - run_start > 1:
            predicates[run_start:index] = sorted(predicates[run_start:index], key=_prior)
        run_start = index + 1
    return predicates
