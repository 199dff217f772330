"""The query optimizer — including the paper's famous ``trace`` bug.

Galax "was, quite reasonably for a query language, focussed on
optimization.  In particular, it did dead-code analysis.  Simply adding the
trace introduces a dead variable $dummy, which the Galax compiler helpfully
optimizes away — along with the call to trace."

The dead-``let`` elimination pass here reproduces that behaviour when
``trace_is_dead_code=True`` (the 2004 state); with the flag off, ``trace``
and ``error`` count as side effects and survive, modelling the fixed
compiler the paper says shipped "in the next version".  Effects follow
calls to declared user functions, so a ``trace`` inside a helper survives
too.

Passes:

* constant folding of arithmetic;
* dead-``let`` elimination in FLWOR expressions, as :func:`dead_lets`
  decides it (the linter's XQL001/XQL005 report from the same decision);
* flattening of nested sequence expressions.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from . import ast
from .errors import XQueryError
from .functions import lookup_builtin, resolve_call
from .operators import arithmetic


class OptimizerStats:
    """Counts what the optimizer did — benchmarks report these."""

    def __init__(self) -> None:
        self.folded_constants = 0
        self.dead_lets_removed = 0
        self.traces_removed = 0

    def as_dict(self) -> dict:
        return {
            "folded_constants": self.folded_constants,
            "dead_lets_removed": self.dead_lets_removed,
            "traces_removed": self.traces_removed,
        }


def optimize_module(module: ast.Module, trace_is_dead_code: bool = False) -> OptimizerStats:
    """Optimize a module in place; returns statistics about the rewrites."""
    optimizer = _Optimizer(module, trace_is_dead_code)
    for function in module.functions:
        function.body = optimizer.rewrite(function.body)
    for variable in module.variables:
        if variable.value is not None:
            variable.value = optimizer.rewrite(variable.value)
    if module.body is not None:
        module.body = optimizer.rewrite(module.body)
    return optimizer.stats


def free_variables(expr) -> Set[str]:
    """Over-approximate the set of variable names referenced in *expr*.

    Shadowing makes this an over-approximation; over-approximating keeps
    more code, which is the safe direction.
    """
    names: Set[str] = set()

    def visit(node) -> None:
        if isinstance(node, ast.VarRef):
            names.add(node.name)

    ast.walk(expr, visit)
    return names


#: from which child on a node's children run under a focus of their own: an
#: axis step's predicates, and all but the first part of a path or a filter.
_OWN_FOCUS = {ast.AxisStep: 0, ast.PathExpr: 1, ast.FilterExpr: 1}


class Effects:
    """Which of ``fn:trace`` and ``fn:error`` evaluating an expression can
    reach, and ``"focus"`` if it reads the focus it runs under: the one
    effect analysis of the dead-``let`` pass and the linter, and the one
    evaluate-once rule of the algebra and the closure compiler.

    A call reaches what :func:`~.functions.resolve_call` says it names over
    *functions*; a call to no user function counts by name, at any arity.  A
    user call reaches what every declaration reachable from it through
    calls reaches, so recursion is safe; each body is walked once per
    instance.  The values of the ``let`` clauses whose ids are in *skip*
    never run.

    The focus is read by ``.``, a relative step, a path anchored at ``/``
    or ``//``, ``position()``, ``last()`` and a zero-argument builtin that
    also has a one-argument form (``string()``, ``name()``, ...); predicates,
    later path steps and user-function bodies set their own.
    """

    def __init__(self, functions: Dict[Tuple[str, int], ast.FunctionDecl], skip=frozenset()):
        self.functions = functions
        self.skip = skip
        self._bodies: Dict[int, Tuple[Set[str], List[ast.FunctionDecl]]] = {}

    def of(self, expr) -> FrozenSet[str]:
        found, pending = self._direct(expr, True)
        seen: Set[int] = set()
        while pending:
            declaration = pending.pop()
            if id(declaration) in seen:
                continue
            seen.add(id(declaration))
            body = self._bodies.get(id(declaration))
            if body is None:
                body = self._bodies[id(declaration)] = self._direct(declaration.body, False)
            found |= body[0]
            pending.extend(body[1])
        return frozenset(found)

    def _direct(self, expr, focus: bool) -> Tuple[Set[str], List[ast.FunctionDecl]]:
        """The effects *expr* reaches itself, and the declarations it calls;
        *focus* says whether *expr* runs under the focus asked about."""
        found: Set[str] = set()
        calls: List[ast.FunctionDecl] = []
        # nodes under the focus asked about, then nodes under a focus of their
        # own (the first pass only adds to the second)
        focused, pending = ([expr], []) if focus else ([], [expr])
        for outer, stack in ((True, focused), (False, pending)):
            while stack:
                node = stack.pop()
                kind = type(node)
                if outer and (
                    kind in (ast.ContextItem, ast.AxisStep)
                    or kind is ast.PathExpr and node.anchor
                ):
                    found.add("focus")
                if kind in _LEAVES:
                    continue
                if isinstance(node, ast.FunctionCall):
                    children = node.args
                    callee = resolve_call(node, self.functions)
                    if callee.declaration is not None:
                        calls.append(callee.declaration)
                    elif callee.name in ("trace", "error"):
                        found.add(callee.name)
                    elif outer and callee.kind == "builtin" and not node.args and (
                        callee.name in ("position", "last") or lookup_builtin(callee.name, 1)
                    ):
                        found.add("focus")
                elif isinstance(node, ast.FLWOR) and self.skip:
                    children = [node.result]
                    for clause in node.clauses:
                        if id(clause) not in self.skip:
                            children.extend(ast.clause_exprs(clause))
                else:
                    children = ast.children_of(node)
                if outer:
                    own = _OWN_FOCUS.get(kind, len(children))
                    focused.extend(children[:own])
                    pending.extend(children[own:])
                else:
                    pending.extend(children)
        return found, calls


class DeadLet(NamedTuple):
    """A ``let`` nothing reads: *kept* for an effect the mode counts as
    observable, or deleted; *traced* if its value reaches ``fn:trace``."""

    kept: bool
    traced: bool


def dead_lets(module: ast.Module, trace_is_dead_code=False, functions=None) -> Dict[int, DeadLet]:
    """The dead ``let`` clauses of *module*, by ``id`` of the clause; a let
    not in the map is live.  The tree is not changed.

    The one dead-code rule: :func:`optimize_module` applies it, and the
    linter's XQL001 and XQL005 report from it.  It works bottom-up.  A
    let is dead when neither its FLWOR's result nor a later clause reads
    its variable, where a nested FLWOR reads only what its live clauses
    and result read.  A dead let is kept when its value can reach
    ``fn:error``, or ``fn:trace`` unless *trace_is_dead_code* (the 2004
    Galax bug) demotes trace to dead code.  Both follow user-function calls.
    """
    functions = ast.function_table(module) if functions is None else functions
    effects = Effects(functions)
    observable = {"error"} if trace_is_dead_code else {"trace", "error"}
    dead: Dict[int, ast.LetClause] = {}
    kept: Set[int] = set()

    def read(expr, names: Set[str]) -> None:
        """Add the names *expr* reads once its dead lets are gone."""
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.VarRef):
                names.add(node.name)
            elif isinstance(node, ast.FLWOR):
                names |= flwor_reads(node)
            elif type(node) not in _LEAVES:
                pending.extend(ast.children_of(node))

    def flwor_reads(flwor: ast.FLWOR) -> Set[str]:
        # from the last clause: `downstream` holds the names the result and
        # every later clause read, a dead let's too, so a dead let keeps
        # alive the lets its value reads; `used` holds those of what stays.
        used: Set[str] = set()
        read(flwor.result, used)
        downstream = set(used)
        for clause in reversed(flwor.clauses):
            names: Set[str] = set()
            for expr in ast.clause_exprs(clause):
                read(expr, names)
            if isinstance(clause, ast.LetClause) and clause.var not in downstream:
                dead[id(clause)] = clause
                if effects.of(clause.value) & observable:
                    kept.add(id(clause))
                    used |= names
            else:
                used |= names
            downstream |= names
        return used

    for root in [f.body for f in module.functions] + [v.value for v in module.variables]:
        read(root, set())
    read(module.body, set())
    # whether a deleted value reached a trace is read off what survives:
    # a trace inside a let deleted before it was not deleted twice.
    surviving = Effects(functions, frozenset(dead.keys() - kept))
    return {
        key: DeadLet(key in kept, "trace" in surviving.of(clause.value))
        for key, clause in dead.items()
    }


#: expressions with no subexpressions: no pass rewrites them.
_LEAVES = frozenset(
    (ast.Literal, ast.EmptySequence, ast.VarRef, ast.ContextItem, ast.DirectComment, ast.DirectPI)
)


class _Optimizer:
    def __init__(self, module: ast.Module, trace_is_dead_code: bool):
        self.module = module
        self.trace_is_dead_code = trace_is_dead_code
        self.stats = OptimizerStats()
        #: the decision :meth:`_eliminate_dead_lets` applies, taken at the
        #: first FLWOR with a ``let`` on the partly folded tree.  No other
        #: rewrite adds or drops a ``VarRef``, a call or a ``let``, so it
        #: holds for the whole pass.
        self._dead: Optional[Dict[int, DeadLet]] = None

    # -- driver -----------------------------------------------------------

    def rewrite(self, expr):
        if expr is None or type(expr) in _LEAVES or not isinstance(expr, ast.Expr):
            return expr
        expr = self._rewrite_children(expr)
        if isinstance(expr, ast.Arithmetic):
            return self._fold_arithmetic(expr)
        if isinstance(expr, ast.FLWOR):
            return self._eliminate_dead_lets(expr)
        if isinstance(expr, ast.SequenceExpr):
            return self._flatten_sequence(expr)
        return expr

    def _rewrite_children(self, expr):
        if isinstance(expr, ast.SequenceExpr):
            expr.items = [self.rewrite(item) for item in expr.items]
        elif isinstance(expr, (ast.Arithmetic, ast.Comparison, ast.BooleanOp, ast.SetOp)):
            expr.left = self.rewrite(expr.left)
            expr.right = self.rewrite(expr.right)
        elif isinstance(expr, ast.RangeExpr):
            expr.start = self.rewrite(expr.start)
            expr.end = self.rewrite(expr.end)
        elif isinstance(expr, ast.Unary):
            expr.operand = self.rewrite(expr.operand)
        elif isinstance(expr, ast.FilterExpr):
            expr.base = self.rewrite(expr.base)
            expr.predicates = [self.rewrite(p) for p in expr.predicates]
        elif isinstance(expr, ast.AxisStep):
            expr.predicates = [self.rewrite(p) for p in expr.predicates]
        elif isinstance(expr, ast.PathExpr):
            if expr.first is not None:
                expr.first = self.rewrite(expr.first)
            expr.steps = [(sep, self.rewrite(step)) for sep, step in expr.steps]
        elif isinstance(expr, ast.FLWOR):
            for clause in expr.clauses:
                if isinstance(clause, ast.ForClause):
                    clause.source = self.rewrite(clause.source)
                elif isinstance(clause, ast.LetClause):
                    clause.value = self.rewrite(clause.value)
                elif isinstance(clause, ast.WhereClause):
                    clause.condition = self.rewrite(clause.condition)
                elif isinstance(clause, ast.OrderByClause):
                    for spec in clause.specs:
                        spec.key = self.rewrite(spec.key)
            expr.result = self.rewrite(expr.result)
        elif isinstance(expr, ast.Quantified):
            expr.bindings = [(var, self.rewrite(src)) for var, src in expr.bindings]
            expr.satisfies = self.rewrite(expr.satisfies)
        elif isinstance(expr, ast.IfExpr):
            expr.condition = self.rewrite(expr.condition)
            expr.then_branch = self.rewrite(expr.then_branch)
            expr.else_branch = self.rewrite(expr.else_branch)
        elif isinstance(expr, ast.Typeswitch):
            expr.operand = self.rewrite(expr.operand)
            for case in expr.cases:
                case.result = self.rewrite(case.result)
            expr.default = self.rewrite(expr.default)
        elif isinstance(expr, ast.TryCatch):
            expr.body = self.rewrite(expr.body)
            expr.handler = self.rewrite(expr.handler)
        elif isinstance(expr, ast.FunctionCall):
            expr.args = [self.rewrite(arg) for arg in expr.args]
        elif isinstance(expr, ast.DirectElement):
            expr.attributes = [
                (name, [self.rewrite(p) if isinstance(p, ast.Expr) else p for p in parts])
                for name, parts in expr.attributes
            ]
            expr.content = [
                self.rewrite(p) if isinstance(p, ast.Expr) else p for p in expr.content
            ]
        elif isinstance(expr, (ast.ComputedElement, ast.ComputedAttribute)):
            if expr.name_expr is not None:
                expr.name_expr = self.rewrite(expr.name_expr)
            if expr.content is not None:
                expr.content = self.rewrite(expr.content)
        elif isinstance(expr, (ast.ComputedText, ast.ComputedComment, ast.ComputedDocument)):
            if expr.content is not None:
                expr.content = self.rewrite(expr.content)
        elif isinstance(expr, (ast.InstanceOf, ast.CastAs, ast.CastableAs, ast.TreatAs)):
            expr.operand = self.rewrite(expr.operand)
        return expr

    # -- passes -----------------------------------------------------------

    def _fold_arithmetic(self, expr: ast.Arithmetic):
        if not (isinstance(expr.left, ast.Literal) and isinstance(expr.right, ast.Literal)):
            return expr
        try:
            result = arithmetic(expr.op, [expr.left.value], [expr.right.value])
        except XQueryError:
            return expr  # leave runtime errors to runtime
        if len(result) != 1 or isinstance(result[0], Decimal):
            return expr
        self.stats.folded_constants += 1
        return ast.Literal(value=result[0], line=expr.line, column=expr.column)

    def _eliminate_dead_lets(self, expr: ast.FLWOR):
        """Remove the ``let`` clauses :func:`dead_lets` deletes.

        This is the pass that ate the paper's ``let $dummy := trace(...)``
        probes when ``trace_is_dead_code`` is on.
        """
        if not any(isinstance(clause, ast.LetClause) for clause in expr.clauses):
            return expr
        if self._dead is None:
            self._dead = dead_lets(self.module, self.trace_is_dead_code)
        kept: List[object] = []
        for clause in expr.clauses:
            fate = self._dead.get(id(clause))
            if fate is None or fate.kept:
                kept.append(clause)
                continue
            self.stats.dead_lets_removed += 1
            if fate.traced:
                self.stats.traces_removed += 1
        expr.clauses = kept
        if not kept:
            return expr.result
        return expr

    def _flatten_sequence(self, expr: ast.SequenceExpr):
        items: List[ast.Expr] = []
        changed = False
        for item in expr.items:
            if isinstance(item, ast.SequenceExpr):
                items.extend(item.items)
                changed = True
            elif isinstance(item, ast.EmptySequence):
                changed = True
            else:
                items.append(item)
        if not changed:
            return expr
        if not items:
            return ast.EmptySequence(line=expr.line, column=expr.column)
        if len(items) == 1:
            return items[0]
        return replace(expr, items=items)
