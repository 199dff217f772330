"""The query optimizer — including the paper's famous ``trace`` bug.

Galax "was, quite reasonably for a query language, focussed on
optimization.  In particular, it did dead-code analysis.  Simply adding the
trace introduces a dead variable $dummy, which the Galax compiler helpfully
optimizes away — along with the call to trace."

The dead-``let`` elimination pass here reproduces that behaviour when
``trace_is_dead_code=True`` (the 2004 state); with the flag off, ``trace``
and ``error`` count as side effects and survive, modelling the fixed
compiler the paper says shipped "in the next version".

Passes:

* constant folding of arithmetic, comparisons, boolean operators, and
  ``if`` with a constant condition;
* dead-``let`` elimination in FLWOR expressions;
* flattening of nested sequence expressions.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from typing import Dict, List, Set, Tuple

from . import ast
from .errors import XQueryError
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
    optimizer = _Optimizer(trace_is_dead_code)
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

    Used by dead-code elimination: a ``let`` binding survives if its name
    *might* be referenced downstream.  (Shadowing makes this an
    over-approximation; over-approximating keeps more code, which is the
    safe direction.)
    """
    names: Set[str] = set()

    def visit(node) -> None:
        if isinstance(node, ast.VarRef):
            names.add(node.name)

    ast.walk(expr, visit)
    return names


def clause_variables(clause, variables=free_variables) -> Set[str]:
    """The variable names a FLWOR clause's expressions reference, as
    *variables* finds them in each."""
    if isinstance(clause, ast.ForClause):
        return variables(clause.source)
    if isinstance(clause, ast.LetClause):
        return variables(clause.value)
    if isinstance(clause, ast.WhereClause):
        return variables(clause.condition)
    names: Set[str] = set()
    for spec in clause.specs:
        names |= variables(spec.key)
    return names


def has_side_effects(expr, trace_is_dead_code: bool) -> bool:
    """True if evaluating *expr* could do something observable.

    ``fn:error`` always counts.  ``fn:trace`` counts only when the
    optimizer is *not* in its buggy mode — the whole point of the bug is
    that trace's output was not considered observable.
    """
    impure = {"error"}
    if not trace_is_dead_code:
        impure.add("trace")

    found = []

    def visit(node) -> None:
        if isinstance(node, ast.FunctionCall):
            name = node.name[3:] if node.name.startswith("fn:") else node.name
            if name in impure:
                found.append(name)

    ast.walk(expr, visit)
    return bool(found)


def contains_trace(expr) -> bool:
    found = []

    def visit(node) -> None:
        if isinstance(node, ast.FunctionCall):
            name = node.name[3:] if node.name.startswith("fn:") else node.name
            if name == "trace":
                found.append(name)

    ast.walk(expr, visit)
    return bool(found)


#: expressions with no subexpressions: no pass rewrites them.
_LEAVES = frozenset(
    (ast.Literal, ast.EmptySequence, ast.VarRef, ast.ContextItem, ast.DirectComment, ast.DirectPI)
)


class _Optimizer:
    def __init__(self, trace_is_dead_code: bool):
        self.trace_is_dead_code = trace_is_dead_code
        self.stats = OptimizerStats()
        #: the names each FLWOR uses once its dead lets are gone, by id; the
        #: FLWOR is kept beside them, so no other node takes over the id.
        self._flwor_names: Dict[int, Tuple[ast.FLWOR, Set[str]]] = {}

    def _variables(self, expr) -> Set[str]:
        """``free_variables(expr)``, reading each FLWOR this pass has
        already reduced from its record instead of walking it again."""
        names: Set[str] = set()
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.VarRef):
                names.add(node.name)
            elif isinstance(node, ast.FLWOR) and id(node) in self._flwor_names:
                names |= self._flwor_names[id(node)][1]
                continue
            pending.extend(ast.children_of(node))
        return names

    # -- driver -----------------------------------------------------------

    def rewrite(self, expr):
        if expr is None or type(expr) in _LEAVES or not isinstance(expr, ast.Expr):
            return expr
        expr = self._rewrite_children(expr)
        if isinstance(expr, ast.Arithmetic):
            return self._fold_arithmetic(expr)
        if isinstance(expr, ast.BooleanOp):
            return self._fold_boolean(expr)
        if isinstance(expr, ast.IfExpr):
            return self._fold_if(expr)
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

    @staticmethod
    def _literal_value(expr):
        if isinstance(expr, ast.Literal):
            return [expr.value]
        return None

    def _fold_arithmetic(self, expr: ast.Arithmetic):
        left = self._literal_value(expr.left)
        right = self._literal_value(expr.right)
        if left is None or right is None:
            return expr
        try:
            result = arithmetic(expr.op, left, right)
        except XQueryError:
            return expr  # leave runtime errors to runtime
        if len(result) != 1 or isinstance(result[0], Decimal):
            return expr
        self.stats.folded_constants += 1
        return ast.Literal(value=result[0], line=expr.line, column=expr.column)

    def _fold_boolean(self, expr: ast.BooleanOp):
        left = self._literal_value(expr.left)
        if left is None or len(left) != 1 or not isinstance(left[0], bool):
            return expr
        self.stats.folded_constants += 1
        if expr.op == "and":
            if not left[0]:
                return ast.Literal(value=False, line=expr.line, column=expr.column)
            return expr.right
        if left[0]:
            return ast.Literal(value=True, line=expr.line, column=expr.column)
        return expr.right

    def _fold_if(self, expr: ast.IfExpr):
        condition = self._literal_value(expr.condition)
        if condition is None or len(condition) != 1 or not isinstance(condition[0], bool):
            return expr
        self.stats.folded_constants += 1
        return expr.then_branch if condition[0] else expr.else_branch

    def _eliminate_dead_lets(self, expr: ast.FLWOR):
        """Remove ``let`` clauses whose variable is never used downstream.

        This is the pass that ate the paper's ``let $dummy := trace(...)``
        probes when ``trace_is_dead_code`` is on.
        """
        clauses = expr.clauses
        if not any(isinstance(clause, ast.LetClause) for clause in clauses):
            return expr
        # one walk over the clauses from the last: `downstream` holds the
        # names the result and every later clause use.  Those are the
        # original clauses, so a let found dead still keeps alive the lets
        # its value reads.  `used` collects the names of what stays.
        used = self._variables(expr.result)
        downstream = set(used)
        kept: List[object] = []
        for index in range(len(clauses) - 1, -1, -1):
            clause = clauses[index]
            names = clause_variables(clause, self._variables)
            if (
                isinstance(clause, ast.LetClause)
                and clause.var not in downstream
                and not has_side_effects(clause.value, self.trace_is_dead_code)
            ):
                self.stats.dead_lets_removed += 1
                if contains_trace(clause.value):
                    self.stats.traces_removed += 1
            else:
                kept.append(clause)
                used |= names
            downstream |= names
        kept.reverse()
        expr.clauses = kept
        self._flwor_names[id(expr)] = (expr, used)
        if not expr.clauses:
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
