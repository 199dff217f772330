"""The closure compiler: the algebra backend's fallback evaluator.

The tree-walking evaluator pays a ``_DISPATCH`` dict lookup, attribute
re-resolution, and a chain of ``isinstance`` tests on *every* evaluation
step of every node — per row, per cell, per predicate.  This module walks
an (already optimized) AST expression **once** and emits nested Python
closures (``Callable[[DynamicContext], Sequence]``): all dispatch
decisions, node-test shapes, and function resolutions are taken while
compiling, so running an expression is just calling plain closures.

Only the forms measured hot have a closure: paths, FLWOR, variables,
function calls, comparisons, conditionals, quantifiers, try/catch and the
element, attribute and text constructors.  Every other form (ranges, unary
minus, set operators, typeswitch, cast/castable/treat, comment and
document constructors) has no entry in ``_COMPILE`` and runs on the
treewalk itself, as do ``xs:`` constructor calls and calls to unknown
functions.  Both share one ``DynamicContext``, so a handed-over
subtree keeps the focus, scope, recursion depth, deadline and error
locations of the closure around it.

The compiled forms are *bit-for-bit* the treewalk's — same quirks, same
error codes, same evaluation order — which ``tests/test_backend_parity.py``
asserts, including at the boundary between the two.  To keep drift
impossible the compiler reuses every evaluator helper that does not itself
recurse through ``evaluate`` (``construct_element``, ``_test_matches``,
``_OrderKey``, …); only the recursion itself is replaced by closures.

Every axis step, here and in the algebra executor, runs through one
function, :func:`run_path_step`: one candidate scan (:func:`axis_scan`;
child and attribute name-steps read the lazy name indexes on
:class:`~repro.xdm.nodes.ElementNode`, turning the docgen templates'
hammered axes from O(children) scans into dict hits), one ``//``
expansion, one pair of non-node errors, and one rule for when the
document-order sort may be skipped (:func:`step_order`).

Likewise every FLWOR, here and in the algebra executor, runs through one
function, :func:`run_flwor`: one tuple stream (``for`` with ``at``
positions, ``let`` and its declared-type error, ``where``, ``order by``
over ``_OrderKey``, the ``return`` concatenation, and a deadline check per
clause and per tuple).  Each caller passes only how one part runs against
one tuple's bindings.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..xdm import (
    AttributeNode,
    Node,
    ElementNode,
    ComparisonTypeError,
    ProcessingInstructionNode,
    Sequence,
    TextNode,
    UntypedAtomic,
    atomize,
    general_compare,
    sort_document_order,
    string_value_of_atomic,
    value_compare,
)
from . import ast
from .context import DynamicContext, EngineConfig
from .errors import XQueryDynamicError, XQueryTypeError
from .evaluator import (
    _OrderKey,
    _axis_candidates,
    _error,
    _is_numeric_predicate,
    _node_comparison,
    _test_matches,
    _enclosed_items,
    construct_element,
    ebv,
    evaluate,
    undefined_variable,
)
from .functions import resolve_call
from .operators import arithmetic
from .optimizer import Effects

#: A compiled expression: call it with a dynamic context, get a sequence.
Thunk = Callable[[DynamicContext], Sequence]


#: A compiled predicate: filters a candidate sequence under a context.
_Applier = Callable[[Sequence, DynamicContext], Sequence]

#: builtins that always return a singleton boolean (or raise), so their
#: effective boolean value is just the returned item.  Kept deliberately
#: small and certain; see the matching functions in ``functions.py``.
_BOOLEAN_BUILTINS = frozenset(
    ("empty", "exists", "not", "boolean", "true", "false", "contains", "starts-with")
)


def _select_position(items: Sequence, position: float) -> Sequence:
    """Fast path for a constant numeric predicate like ``[2]``."""
    index = int(position)
    if float(index) == position and 1 <= index <= len(items):
        return [items[index - 1]]
    return []


# -- the fast axis step: the closure compiler's and the algebra executor's ----

#: Axes whose scan of ordered, non-nested context nodes concatenates to
#: ordered, non-nested nodes (disjoint subtrees stay contiguous).
_DISJOINT_AXES = frozenset(("child", "attribute", "self"))
#: Axes whose scan of ordered, non-nested context nodes concatenates to
#: ordered nodes that may nest.
_DESCENDANT_AXES = frozenset(("descendant", "descendant-or-self"))
#: Axes that stay ordered and non-nested for ONE context node only
#: (``parent`` yields at most one node).
_ONE_NODE_AXES = frozenset(("following-sibling", "parent"))


def step_order(axis: str, single: bool, ordered: bool, non_nested: bool):
    """``(ordered, non_nested)`` of a step's concatenated, unsorted scan.

    *single* says the context is one node; *ordered* and *non_nested* say
    the context nodes are in document order without duplicates and none
    contains another.  An ordered scan skips ``sort_document_order``,
    which would be the identity; anything unproven is ``(False, False)``
    and sorts, exactly as the reference does.
    """
    if single or (ordered and non_nested):
        if axis in _DISJOINT_AXES or (single and axis in _ONE_NODE_AXES):
            return True, True
        if axis in _DESCENDANT_AXES:
            return True, False
    return False, False


#: The element name index that answers ``child::name`` or ``attribute::name``.
_NAME_INDEXES = {
    "child": ElementNode.children_by_name,
    "attribute": ElementNode.attributes_by_name,
}


class PathStep:
    """One axis step as the fast engines run it: the step, its axis and node
    test, whether a ``//`` precedes it, and the name index, if any, that
    answers it over an element."""

    __slots__ = ("expr", "axis", "test", "expand", "index")

    def __init__(self, expr: ast.AxisStep, separator: str = "/"):
        self.expr = expr
        self.axis = expr.axis
        self.test = expr.test
        self.expand = separator == "//"
        self.index = _NAME_INDEXES.get(expr.axis) if expr.test.kind == "name" else None


def axis_scan(step: PathStep, node: Node) -> List[Node]:
    """The candidates of one axis step for one context node, as a new list
    in the axis's order.

    A name index is copied, so an internal index list never reaches a
    result; without one, the axis is walked and each node tested as the
    treewalk does.
    """
    if step.index is not None and isinstance(node, ElementNode):
        return list(step.index(node, step.test.name))
    axis = step.axis
    return [n for n in _axis_candidates(node, axis) if _test_matches(step.test, n, axis)]


def expand_descendants(nodes: Sequence, ordered: bool, non_nested: bool) -> Sequence:
    """``//``: every node's descendant-or-self nodes, in document order.

    The concatenation is already ordered for one node or for ordered,
    non-nested nodes; otherwise it is sorted.  Either way the result is
    ordered and may nest.
    """
    expanded: Sequence = []
    for node in nodes:
        if not isinstance(node, Node):
            raise XQueryTypeError("'//' applied to a non-node", code="XPTY0019")
        expanded.extend(node.descendants_or_self())
    if len(nodes) > 1 and not (ordered and non_nested):
        return sort_document_order(expanded)
    return expanded


def _raise_non_node_step(expr: ast.Expr, ctx: DynamicContext, item: object):
    if item is None:
        raise _error(expr, ctx, "context item is absent in a path step", "XPDY0002")
    raise _error(expr, ctx, "a path step was applied to an atomic value", "XPTY0019")


def run_path_step(
    step: PathStep,
    current: Sequence,
    ordered: bool,
    non_nested: bool,
    ctx: DynamicContext,
    keep: Optional[_Applier] = None,
    groups: Optional[List[Sequence]] = None,
):
    """Run one axis step over the context items *current*.

    Checks the deadline, expands a preceding ``//``, raises XPDY0002 or
    XPTY0019 for a context item that is not a node, scans and filters each
    item's candidates (*keep* is the caller's predicate filter,
    ``(items, ctx) -> items``), and sorts the concatenation unless
    :func:`step_order` proves it ordered.  Returns ``(results, ordered,
    non_nested)``.  With *groups*, each item's filtered candidates are
    appended to it instead, nothing is concatenated or sorted, and the
    returned ``ordered`` says whether the groups' concatenation is ordered.
    """
    if ctx.deadline is not None:
        ctx.check_deadline()
    if step.expand:
        current = expand_descendants(current, ordered, non_nested)
        ordered, non_nested = True, False
    ordered, non_nested = step_order(step.axis, len(current) == 1, ordered, non_nested)
    if len(current) == 1 and groups is None:
        item = current[0]
        if not isinstance(item, Node):
            _raise_non_node_step(step.expr, ctx, item)
        results = axis_scan(step, item)
        if keep is not None:
            results = keep(results, ctx)
    else:
        results = []
        for item in current:
            if not isinstance(item, Node):
                _raise_non_node_step(step.expr, ctx, item)
            found = axis_scan(step, item)
            if keep is not None:
                found = keep(found, ctx)
            if groups is None:
                results.extend(found)
            else:
                groups.append(found)
    if not ordered and len(results) > 1:
        results = sort_document_order(results)
    if groups is None:
        ordered = True
    return results, ordered, non_nested


def _apply_step(thunk: Thunk, context_items: Sequence, ctx: DynamicContext) -> Sequence:
    """Compiled twin of the evaluator's ``_apply_step`` for a step that is
    not an axis step, such as ``$x/string()``."""
    if ctx.deadline is not None:
        ctx.check_deadline()
    size = len(context_items)
    results: Sequence = []
    saw_node = False
    saw_atomic = False
    if size:
        # one mutable focus for the whole scan; see _compile_predicate.
        focus = ctx._clone()
        focus.size = size
        for position, item in enumerate(context_items, start=1):
            focus.item = item
            focus.position = position
            for result_item in thunk(focus):
                if isinstance(result_item, Node):
                    saw_node = True
                else:
                    saw_atomic = True
                results.append(result_item)
    if saw_node and saw_atomic:
        raise XQueryTypeError(
            "a path step produced both nodes and atomic values", code="XPTY0018"
        )
    if saw_node:
        return sort_document_order(results)
    return results


# -- the fast FLWOR: the closure compiler's and the algebra executor's -------


def run_flwor(
    expr: ast.FLWOR,
    clauses: List[tuple],
    result: Callable,
    bindings: Dict[str, Sequence],
    scoped: bool,
    ctx: DynamicContext,
) -> Sequence:
    """Run one FLWOR's tuple stream, clause by clause, as the treewalk does.

    *clauses* are the FLWOR's clauses in order: ``("for", var,
    position_var, source)``, ``("let", var, declared_type, value)``,
    ``("where", test)`` and ``("order", ((key, descending, empty_least),
    ...))``.  Each part, like *result*, is the caller's own callable for one
    tuple: with *scoped* it takes ``ctx.with_variables(bindings)`` (the
    closure compiler's thunks and tests), otherwise the tuple's bindings
    (the algebra executor's plans); ``test`` gives a ``where`` condition's
    effective boolean value, every other part a sequence.

    *ctx* comes last, so the compiler's thunk is a ``partial`` of the rest.
    The stream starts from one copy of *bindings*.  With a deadline set, it
    is checked before each clause and each tuple.  A ``let`` value that does
    not match its declared type raises XPTY0004 at *expr*, and ``order by``
    is a stable sort over :class:`~repro.xquery.evaluator._OrderKey`.
    """
    check_deadline = ctx.deadline is not None
    scope = ctx.with_variables if scoped else None
    tuples: List[Dict[str, Sequence]] = [dict(bindings)]
    for clause in clauses:
        if check_deadline:
            ctx.check_deadline()
        kind = clause[0]
        if kind == "for":
            _, var, position_var, source = clause
            expanded = []
            for tuple_bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                items = source(tuple_bindings if scope is None else scope(tuple_bindings))
                for position, item in enumerate(items, start=1):
                    new_bindings = dict(tuple_bindings)
                    new_bindings[var] = [item]
                    if position_var is not None:
                        new_bindings[position_var] = [position]
                    expanded.append(new_bindings)
            tuples = expanded
        elif kind == "let":
            _, var, declared_type, value_of = clause
            for tuple_bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                value = value_of(tuple_bindings if scope is None else scope(tuple_bindings))
                if declared_type is not None and not declared_type.matches(value):
                    raise _error(
                        expr,
                        ctx,
                        f"let ${var} value does not match "
                        f"declared type {declared_type!r}",
                        "XPTY0004",
                    )
                tuple_bindings[var] = value
        elif kind == "where":
            test = clause[1]
            kept = []
            for tuple_bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                if test(tuple_bindings if scope is None else scope(tuple_bindings)):
                    kept.append(tuple_bindings)
            tuples = kept
        else:  # order
            specs = clause[1]
            decorated = []
            for index, tuple_bindings in enumerate(tuples):
                if check_deadline:
                    ctx.check_deadline()
                on = tuple_bindings if scope is None else scope(tuple_bindings)
                keys = tuple(
                    _OrderKey(key(on), descending, empty_least)
                    for key, descending, empty_least in specs
                )
                decorated.append((keys, index, tuple_bindings))
            decorated.sort(key=lambda entry: (entry[0], entry[1]))
            tuples = [tuple_bindings for _, _, tuple_bindings in decorated]
    results: Sequence = []
    for tuple_bindings in tuples:
        if check_deadline:
            ctx.check_deadline()
        results.extend(result(tuple_bindings if scope is None else scope(tuple_bindings)))
    return results


class Compiler:
    """Compiles one module's expressions to thunks; owned by an
    :class:`~repro.xquery.algebra.AlgebraProgram`."""

    def __init__(
        self,
        functions: Dict[Tuple[str, int], ast.FunctionDecl],
        config: EngineConfig,
    ):
        self.functions = functions
        self.config = config
        #: which right sides the predicate fast paths may evaluate once.
        self.effects = Effects(functions)
        #: user-function bodies, compiled on their first call: recursion
        #: needs no ordering, and a fallback that calls none compiles none.
        self.function_bodies: Dict[Tuple[str, int], Thunk] = {}

    def function_body(self, key: Tuple[str, int]) -> Thunk:
        body = self.function_bodies.get(key)
        if body is None:
            # racing first calls compile equal thunks; either one may win.
            body = self.function_bodies[key] = self.compile(self.functions[key].body)
        return body

    def compile(self, expr: ast.Expr) -> Thunk:
        method = _COMPILE.get(type(expr))
        if method is None:
            # a cold form runs on the treewalk, which also raises for a
            # form no evaluator knows.
            return lambda ctx: evaluate(expr, ctx)
        return method(self, expr)

    def _compile_predicates(self, predicates: List[ast.Expr]) -> List[_Applier]:
        return [self._compile_predicate(p) for p in predicates]

    def _compile_predicate(self, predicate: ast.Expr) -> _Applier:
        """Compile one predicate to an applier ``(items, ctx) -> items``.

        Three shapes, chosen at compile time: a constant numeric predicate
        like ``[2]`` selects positionally; the docgen-hot shape
        ``[@name eq <pure expr>]`` compares attribute values without building
        a focus context per candidate; everything else runs the generic
        focus-per-item loop the treewalk uses.
        """
        if (
            isinstance(predicate, ast.Literal)
            and not isinstance(predicate.value, bool)
            and isinstance(predicate.value, (int, float))
        ):
            position = float(predicate.value)
            return lambda items, ctx: _select_position(items, position)
        fast = self._attribute_comparison_applier(predicate)
        if fast is None:
            fast = self._name_comparison_applier(predicate)
        if fast is not None:
            return fast
        if isinstance(predicate, (ast.BooleanOp, ast.Comparison)):
            # always [], [True] or [False]: never a numeric predicate, and
            # its EBV is the item itself.  (A node-style comparison also
            # yields only booleans/empties, so it is included.)
            test = self._compile_ebv(predicate)

            def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
                size = len(items)
                if not size:
                    return items
                focus = ctx._clone()
                focus.size = size
                kept = []
                for position, item in enumerate(items, start=1):
                    focus.item = item
                    focus.position = position
                    if test(focus):
                        kept.append(item)
                return kept

            return applier
        thunk = self.compile(predicate)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            size = len(items)
            if not size:
                return items
            # One mutable focus serves every candidate: derived contexts
            # copy the focus fields at clone time, and evaluation is eager,
            # so nothing observes the focus after its item's thunk returns.
            focus = ctx._clone()
            focus.size = size
            kept = []
            for position, item in enumerate(items, start=1):
                focus.item = item
                focus.position = position
                result = thunk(focus)
                if _is_numeric_predicate(result):
                    if float(result[0]) == position:
                        kept.append(item)
                elif ebv(result, predicate, ctx):
                    kept.append(item)
            return kept

        return applier

    def _attribute_comparison_applier(self, predicate: ast.Expr) -> Optional[_Applier]:
        """The fast path for ``[@name eq <right>]`` value comparisons.

        This is the shape the docgen/querycalc sources hammer
        (``node[@id eq string($id)]``, ``edge[@source eq $n/@id]``): the
        attribute lookup uses the element's name index, and a right side in
        which :class:`~.optimizer.Effects`, the one evaluate-once rule, finds
        nothing is evaluated once per application instead of once per
        candidate.  Error behaviour is order-preserving with the treewalk:
        an atomic candidate raises XPTY0019 before the right side is looked
        at, the right side is first evaluated when the first candidate is
        inspected, empty sides skip before the singleton check, and
        singleton/comparability violations carry the same XPTY0004 messages.
        """
        if not (isinstance(predicate, ast.Comparison) and predicate.style == "value"):
            return None
        left_expr = predicate.left
        # ``@name`` appears both as a bare step and as a one-step relative
        # path, depending on the production that parsed it.
        if (
            isinstance(left_expr, ast.PathExpr)
            and left_expr.anchor is None
            and not left_expr.steps
            and isinstance(left_expr.first, ast.AxisStep)
        ):
            left_expr = left_expr.first
        if not (
            isinstance(left_expr, ast.AxisStep)
            and left_expr.axis == "attribute"
            and left_expr.test.kind == "name"
            and not left_expr.predicates
            and not self.effects.of(predicate.right)
        ):
            return None
        attr_name = left_expr.test.name
        op = predicate.op
        keep_equal = op == "eq"
        right_thunk = self.compile(predicate.right)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            kept = []
            right_atoms: Optional[Sequence] = None
            # When the right side is a singleton string(-ish) atom and the
            # operator is eq/ne, the untyped attribute value compares as a
            # plain string: skip value_compare (and its promotion ladder)
            # per candidate entirely.
            target: Optional[str] = None
            for item in items:
                if not isinstance(item, Node):
                    _raise_non_node_step(left_expr, ctx, item)
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(attr_name)
                else:
                    matches = [a for a in item.attributes if a.name == attr_name]
                if right_atoms is None:
                    right_atoms = atomize(right_thunk(ctx))
                    if len(right_atoms) == 1 and op in ("eq", "ne"):
                        atom = right_atoms[0]
                        if isinstance(atom, UntypedAtomic):
                            target = atom.value
                        elif isinstance(atom, str):
                            target = atom
                if not matches or not right_atoms:
                    continue
                if target is not None and len(matches) == 1:
                    if (matches[0].value == target) == keep_equal:
                        kept.append(item)
                    continue
                left_atoms = atomize(matches)
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        predicate,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    if value_compare(op, left_atoms[0], right_atoms[0]):
                        kept.append(item)
                except ComparisonTypeError as exc:
                    raise _error(predicate, ctx, str(exc), "XPTY0004") from exc
            return kept

        return applier

    def _is_builtin_name_call(self, expr: ast.Expr) -> bool:
        """``name()`` or ``name(.)``, resolving to the builtin (unshadowed)."""
        return (
            isinstance(expr, ast.FunctionCall)
            and all(isinstance(arg, ast.ContextItem) for arg in expr.args)
            and resolve_call(expr, self.functions).is_builtin("name")
        )

    def _name_comparison_applier(self, predicate: ast.Expr) -> Optional[_Applier]:
        """The fast path for ``[name(.) eq <right>]`` predicates, under the
        right-side rule of :meth:`_attribute_comparison_applier`.

        ``local:child-element-named`` and ``local:required-attr`` in the
        docgen sources select by node name this way for every directive.
        ``fn:name`` of a node is its name string (or ``""``), so the whole
        test collapses to a string comparison per candidate; errors keep
        the treewalk's order (a non-node candidate raises the builtin's
        type error before the right side is looked at).
        """
        if not (
            isinstance(predicate, ast.Comparison)
            and predicate.style == "value"
            and self._is_builtin_name_call(predicate.left)
            and not self.effects.of(predicate.right)
        ):
            return None
        op = predicate.op
        fast_eq = op in ("eq", "ne")
        keep_equal = op == "eq"
        right_thunk = self.compile(predicate.right)

        def applier(items: Sequence, ctx: DynamicContext) -> Sequence:
            kept = []
            right_atoms: Optional[Sequence] = None
            target: Optional[str] = None
            for item in items:
                if not isinstance(item, Node):
                    raise XQueryTypeError("name requires a node argument")
                if right_atoms is None:
                    right_atoms = atomize(right_thunk(ctx))
                    if fast_eq and len(right_atoms) == 1:
                        atom = right_atoms[0]
                        if isinstance(atom, UntypedAtomic):
                            target = atom.value
                        elif isinstance(atom, str):
                            target = atom
                if not right_atoms:
                    continue
                if target is not None:
                    if ((item.name or "") == target) == keep_equal:
                        kept.append(item)
                    continue
                if len(right_atoms) > 1:
                    raise _error(
                        predicate,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    if value_compare(op, item.name or "", right_atoms[0]):
                        kept.append(item)
                except ComparisonTypeError as exc:
                    raise _error(predicate, ctx, str(exc), "XPTY0004") from exc
            return kept

        return applier

    # -- simple expressions ------------------------------------------------

    def _literal(self, expr: ast.Literal) -> Thunk:
        value = expr.value
        return lambda ctx: [value]

    def _empty(self, expr: ast.EmptySequence) -> Thunk:
        return lambda ctx: []

    def _var(self, expr: ast.VarRef) -> Thunk:
        name = expr.name

        def run(ctx: DynamicContext) -> Sequence:
            try:
                return ctx.variables[name]
            except KeyError:
                raise undefined_variable(expr, ctx) from None

        return run

    def _context_item(self, expr: ast.ContextItem) -> Thunk:
        def run(ctx: DynamicContext) -> Sequence:
            if ctx.item is None:
                raise _error(expr, ctx, "context item is absent", "XPDY0002")
            return [ctx.item]

        return run

    def _sequence(self, expr: ast.SequenceExpr) -> Thunk:
        parts = tuple(self.compile(item) for item in expr.items)

        def run(ctx: DynamicContext) -> Sequence:
            result: Sequence = []
            for part in parts:
                result.extend(part(ctx))
            return result

        return run

    def _arithmetic(self, expr: ast.Arithmetic) -> Thunk:
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op

        def run(ctx: DynamicContext) -> Sequence:
            left = left_thunk(ctx)
            right = right_thunk(ctx)
            try:
                return arithmetic(op, left, right)
            except XQueryTypeError as exc:
                raise _error(expr, ctx, exc.bare_message, exc.code) from exc

        return run

    def _comparison(self, expr: ast.Comparison) -> Thunk:
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op
        if expr.style == "general":

            def run(ctx: DynamicContext) -> Sequence:
                left = left_thunk(ctx)
                right = right_thunk(ctx)
                try:
                    return [general_compare(op, left, right)]
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return run
        if expr.style == "value":

            def run(ctx: DynamicContext) -> Sequence:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return []
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        expr,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                try:
                    return [value_compare(op, left_atoms[0], right_atoms[0])]
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return run

        def run(ctx: DynamicContext) -> Sequence:
            left = left_thunk(ctx)
            right = right_thunk(ctx)
            return _node_comparison(expr, left, right, ctx)

        return run

    def _compile_ebv(
        self, expr: ast.Expr, error_expr: Optional[ast.Expr] = None
    ) -> Callable[[DynamicContext], bool]:
        """Compile *expr* straight to its effective boolean value.

        Boolean operators, comparisons, and quantifiers in boolean
        positions (conditions, where clauses, predicates) skip building a
        singleton list only to take its EBV again.  Order of evaluation
        and every error are exactly the generic path's; ``error_expr`` is
        what a failing EBV blames, which the treewalk varies by call site
        (a boolean operator blames itself, not its operand).
        """
        if error_expr is None:
            error_expr = expr
        if isinstance(expr, ast.BooleanOp):
            left_test = self._compile_ebv(expr.left, expr)
            right_test = self._compile_ebv(expr.right, expr)
            if expr.op == "and":
                return lambda ctx: left_test(ctx) and right_test(ctx)
            return lambda ctx: left_test(ctx) or right_test(ctx)
        if isinstance(expr, ast.Comparison) and expr.style == "general":
            left_thunk = self.compile(expr.left)
            right_thunk = self.compile(expr.right)
            op = expr.op

            def test(ctx: DynamicContext) -> bool:
                try:
                    return general_compare(op, left_thunk(ctx), right_thunk(ctx))
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return test
        if isinstance(expr, ast.Comparison) and expr.style == "value":
            left_thunk = self.compile(expr.left)
            right_thunk = self.compile(expr.right)
            op = expr.op
            fast_eq = op in ("eq", "ne")
            keep_equal = op == "eq"

            def test(ctx: DynamicContext) -> bool:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return False  # the comparison's [] has EBV false
                if len(left_atoms) > 1 or len(right_atoms) > 1:
                    raise _error(
                        expr,
                        ctx,
                        f"value comparison '{op}' requires singleton operands",
                        "XPTY0004",
                    )
                left = left_atoms[0]
                right = right_atoms[0]
                if fast_eq:
                    # Untyped-vs-untyped and untyped-vs-string eq/ne reduce
                    # to plain string equality under the promotion rules.
                    lv = left.value if type(left) is UntypedAtomic else left
                    rv = right.value if type(right) is UntypedAtomic else right
                    if type(lv) is str and type(rv) is str:
                        return (lv == rv) == keep_equal
                try:
                    return value_compare(op, left, right)
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            return test
        thunk = self.compile(expr)
        fast = getattr(thunk, "ebv", None)
        if fast is not None:
            return fast

        def test(ctx: DynamicContext) -> bool:
            return ebv(thunk(ctx), error_expr, ctx)

        return test

    def _boolean_op(self, expr: ast.BooleanOp) -> Thunk:
        test = self._compile_ebv(expr)

        def run(ctx: DynamicContext) -> Sequence:
            return [test(ctx)]

        run.ebv = test
        return run

    # -- paths --------------------------------------------------------------

    def _path_step(self, expr: ast.AxisStep, separator: str = "/"):
        """The :class:`PathStep` and predicate filter ``run_path_step`` takes."""
        appliers = self._compile_predicates(expr.predicates)
        if len(appliers) > 1:

            def keep(items: Sequence, ctx: DynamicContext) -> Sequence:
                for applier in appliers:
                    items = applier(items, ctx)
                return items

        else:
            keep = appliers[0] if appliers else None
        return PathStep(expr, separator), keep

    def _axis_step(self, expr: ast.AxisStep) -> Thunk:
        step, keep = self._path_step(expr)
        return lambda ctx: run_path_step(step, [ctx.item], True, True, ctx, keep)[0]

    def _filter(self, expr: ast.FilterExpr) -> Thunk:
        base_thunk = self.compile(expr.base)
        appliers = self._compile_predicates(expr.predicates)

        def run(ctx: DynamicContext) -> Sequence:
            items = base_thunk(ctx)
            for applier in appliers:
                items = applier(items, ctx)
            return items

        return run

    def _path(self, expr: ast.PathExpr) -> Thunk:
        anchor = expr.anchor
        pairs = list(expr.steps)
        lead: Optional[Thunk] = None
        if anchor is not None:
            # from the root, "/" or "//" separates the first step
            if expr.first is not None:
                pairs.insert(0, (anchor, expr.first))
        elif isinstance(expr.first, ast.AxisStep):
            pairs.insert(0, ("/", expr.first))
        else:
            lead = self.compile(expr.first)
        # (PathStep, filter, _, _) for an axis step; (None, None, whether
        # "//" precedes it, its thunk) for any other step.
        steps = tuple(
            (*self._path_step(step, separator), False, None)
            if isinstance(step, ast.AxisStep)
            else (None, None, separator == "//", self.compile(step))
            for separator, step in pairs
        )

        def run(ctx: DynamicContext) -> Sequence:
            if anchor is not None:
                if not isinstance(ctx.item, Node):
                    raise _error(
                        expr, ctx, "'/' requires a node as the context item", "XPDY0002"
                    )
                current: Sequence = [ctx.item.root()]
                ordered = non_nested = True
            elif lead is None:
                # an absent context item stays: the first step raises XPDY0002
                current = [ctx.item]
                ordered = non_nested = True
            else:
                # The leading expression of a relative path is evaluated once
                # in the outer focus, exactly as the treewalk does.
                current = lead(ctx)
                ordered = non_nested = len(current) <= 1
            for path_step, keep, expand, thunk in steps:
                if path_step is not None:
                    current, ordered, non_nested = run_path_step(
                        path_step, current, ordered, non_nested, ctx, keep
                    )
                    continue
                if expand:
                    current = expand_descendants(current, ordered, non_nested)
                current = _apply_step(thunk, current, ctx)
                ordered = non_nested = False
            return current

        return run

    # -- FLWOR, quantifiers, conditionals -----------------------------------

    def _flwor(self, expr: ast.FLWOR) -> Thunk:
        compiled_clauses: List[tuple] = []
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                compiled_clauses.append(
                    ("for", clause.var, clause.position_var, self.compile(clause.source))
                )
            elif isinstance(clause, ast.LetClause):
                compiled_clauses.append(
                    ("let", clause.var, clause.declared_type, self.compile(clause.value))
                )
            elif isinstance(clause, ast.WhereClause):
                compiled_clauses.append(
                    ("where", self._compile_ebv(clause.condition))
                )
            elif isinstance(clause, ast.OrderByClause):
                specs = tuple(
                    (self.compile(spec.key), spec.descending, spec.empty_least)
                    for spec in clause.specs
                )
                compiled_clauses.append(("order", specs))
        # called with the context: run_flwor itself, no frame in between
        return partial(run_flwor, expr, compiled_clauses, self.compile(expr.result), {}, True)

    def _quantified(self, expr: ast.Quantified) -> Thunk:
        bindings = tuple((var, self.compile(source)) for var, source in expr.bindings)
        satisfies_test = self._compile_ebv(expr.satisfies)
        some = expr.quantifier == "some"
        count = len(bindings)

        def loop(index: int, ctx: DynamicContext) -> bool:
            if index == count:
                return satisfies_test(ctx)
            var, source_thunk = bindings[index]
            for item in source_thunk(ctx):
                scope = ctx.with_variables({var: [item]})
                if loop(index + 1, scope) == some:
                    return some
            return not some

        def run(ctx: DynamicContext) -> Sequence:
            return [loop(0, ctx)]

        run.ebv = lambda ctx: loop(0, ctx)
        return run

    def _try_catch(self, expr: ast.TryCatch) -> Thunk:
        body_thunk = self.compile(expr.body)
        handler_thunk = self.compile(expr.handler)
        catch_var = expr.catch_var

        def run(ctx: DynamicContext) -> Sequence:
            try:
                return body_thunk(ctx)
            except XQueryDynamicError as error:
                if catch_var is None:
                    return handler_thunk(ctx)
                message = ElementNode("message")
                message.append(TextNode(getattr(error, "bare_message", str(error))))
                error_element = ElementNode("error")
                error_element.set_attribute("code", error.code)
                error_element.append(message)
                scope = ctx.with_variables({catch_var: [error_element]})
                return handler_thunk(scope)

        return run

    def _if(self, expr: ast.IfExpr) -> Thunk:
        condition_test = self._compile_ebv(expr.condition)
        then_thunk = self.compile(expr.then_branch)
        else_thunk = self.compile(expr.else_branch)

        def run(ctx: DynamicContext) -> Sequence:
            if condition_test(ctx):
                return then_thunk(ctx)
            return else_thunk(ctx)

        return run

    # -- functions -----------------------------------------------------------

    def _function_call(self, expr: ast.FunctionCall) -> Thunk:
        callee = resolve_call(expr, self.functions)
        if callee.kind == "user":
            key = (callee.name, len(expr.args))  # the function_table key
            return self._user_function_call(expr, key, callee.declaration)
        if callee.kind != "builtin":
            # constructor functions are cold: the treewalk casts; it also
            # raises XPST0017 for an unknown call when it is evaluated.
            return lambda ctx: evaluate(expr, ctx)
        builtin = callee.builtin
        arg_thunks = tuple(self.compile(arg) for arg in expr.args)

        def run(ctx: DynamicContext) -> Sequence:
            args = [thunk(ctx) for thunk in arg_thunks]
            return builtin(ctx, args, expr)

        if callee.name in _BOOLEAN_BUILTINS:
            run.ebv = lambda ctx: builtin(
                ctx, [thunk(ctx) for thunk in arg_thunks], expr
            )[0]
        return run

    def _user_function_call(
        self,
        expr: ast.FunctionCall,
        key: Tuple[str, int],
        declaration: ast.FunctionDecl,
    ) -> Thunk:
        function_name = declaration.name
        function_body = self.function_body  # resolved at call time: recursion-safe
        max_depth = self.config.max_recursion_depth
        # The program is compiled against one config (the compile cache is
        # keyed on it), so the type-checking decision and the per-parameter
        # checks are taken here, not per call.
        check_types = self.config.type_check_calls
        param_specs = tuple(
            (
                param.name,
                arg_thunk,
                param.declared_type if check_types else None,
                f"argument ${param.name} of {function_name}() does not match "
                f"declared type {param.declared_type!r}",
            )
            for param, arg_thunk in zip(
                declaration.params, (self.compile(arg) for arg in expr.args)
            )
        )
        return_type = declaration.return_type if check_types else None

        def run(ctx: DynamicContext) -> Sequence:
            if ctx.depth >= max_depth:
                raise _error(
                    expr,
                    ctx,
                    f"recursion depth limit exceeded calling {function_name}()",
                    "FOER0000",
                )
            ctx.check_deadline()
            bindings: Dict[str, Sequence] = {}
            for param_name, arg_thunk, declared_type, type_message in param_specs:
                value = arg_thunk(ctx)
                if declared_type is not None and not declared_type.matches(value):
                    raise _error(expr, ctx, type_message, "XPTY0004")
                bindings[param_name] = value
            scope = ctx.function_scope(bindings)
            result = function_body(key)(scope)
            if return_type is not None and not return_type.matches(result):
                raise _error(
                    expr,
                    ctx,
                    f"result of {function_name}() does not match declared type "
                    f"{return_type!r}",
                    "XPTY0004",
                )
            return result

        return run

    # -- type expressions ------------------------------------------------------

    def _instance_of(self, expr: ast.InstanceOf) -> Thunk:
        operand_thunk = self.compile(expr.operand)
        sequence_type = expr.sequence_type

        def run(ctx: DynamicContext) -> Sequence:
            return [sequence_type.matches(operand_thunk(ctx))]

        run.ebv = lambda ctx: sequence_type.matches(operand_thunk(ctx))
        return run

    # -- constructors -----------------------------------------------------------

    def _direct_element(self, expr: ast.DirectElement) -> Thunk:
        compiled_attributes = tuple(
            (
                attr_name,
                tuple(
                    part if isinstance(part, str) else self.compile(part)
                    for part in parts
                ),
            )
            for attr_name, parts in expr.attributes
        )
        has_duplicate_names = len({name for name, _ in expr.attributes}) != len(
            expr.attributes
        )
        part_thunks: List[Thunk] = []
        for part in expr.content:
            if isinstance(part, ast.DirectText):
                text = part.text
                part_thunks.append(lambda ctx, text=text: [TextNode(text)])
            elif isinstance(part, ast.DirectPI):
                target, text = part.target, part.text
                part_thunks.append(
                    lambda ctx, target=target, text=text: [
                        ProcessingInstructionNode(target, text)
                    ]
                )
            elif isinstance(part, ast.DirectElement):
                part_thunks.append(self._direct_element(part))
            else:
                # space-joining of adjacent atomics applies *within* one
                # enclosed expression; across enclosures text just abuts.
                enclosed_thunk = self.compile(part)
                part_thunks.append(
                    lambda ctx, thunk=enclosed_thunk: _enclosed_items(thunk(ctx))
                )
        name = expr.name
        parts_tuple = tuple(part_thunks)

        def run(ctx: DynamicContext) -> Sequence:
            literal_attributes = [
                AttributeNode(attr_name, _attribute_value_text(parts, ctx))
                for attr_name, parts in compiled_attributes
            ]
            if has_duplicate_names:
                raise _error(
                    expr, ctx, "duplicate attribute in direct constructor", "XQST0040"
                )
            content_items: Sequence = []
            for thunk in parts_tuple:
                content_items.extend(thunk(ctx))
            return [
                construct_element(
                    name, content_items, ctx, expr, literal_attributes=literal_attributes
                )
            ]

        return run

    def _name_thunk(self, expr) -> Callable[[DynamicContext], str]:
        if expr.name is not None:
            name = expr.name
            return lambda ctx: name
        name_thunk = self.compile(expr.name_expr)

        def run(ctx: DynamicContext) -> str:
            value = atomize(name_thunk(ctx))
            if len(value) != 1:
                raise _error(
                    expr, ctx, "computed constructor name must be a singleton", "XPTY0004"
                )
            return string_value_of_atomic(value[0])

        return run

    def _computed_element(self, expr: ast.ComputedElement) -> Thunk:
        name_thunk = self._name_thunk(expr)
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            name = name_thunk(ctx)
            content = content_thunk(ctx) if content_thunk is not None else []
            return [construct_element(name, content, ctx, expr)]

        return run

    def _computed_attribute(self, expr: ast.ComputedAttribute) -> Thunk:
        name_thunk = self._name_thunk(expr)
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            name = name_thunk(ctx)
            content = atomize(content_thunk(ctx)) if content_thunk is not None else []
            text = " ".join(string_value_of_atomic(item) for item in content)
            return [AttributeNode(name, text)]

        return run

    def _computed_text(self, expr: ast.ComputedText) -> Thunk:
        content_thunk = self.compile(expr.content) if expr.content is not None else None

        def run(ctx: DynamicContext) -> Sequence:
            content = atomize(content_thunk(ctx)) if content_thunk is not None else []
            if not content:
                return []
            return [TextNode(" ".join(string_value_of_atomic(item) for item in content))]

        return run


def _attribute_value_text(parts: tuple, ctx: DynamicContext) -> str:
    pieces: List[str] = []
    for part in parts:
        if isinstance(part, str):
            pieces.append(part)
        else:
            value = part(ctx)
            pieces.append(
                " ".join(
                    item.string_value() if isinstance(item, Node) else string_value_of_atomic(item)
                    for item in value
                )
            )
    return "".join(pieces)


_COMPILE = {
    ast.Literal: Compiler._literal,
    ast.EmptySequence: Compiler._empty,
    ast.VarRef: Compiler._var,
    ast.ContextItem: Compiler._context_item,
    ast.SequenceExpr: Compiler._sequence,
    ast.Arithmetic: Compiler._arithmetic,
    ast.Comparison: Compiler._comparison,
    ast.BooleanOp: Compiler._boolean_op,
    ast.AxisStep: Compiler._axis_step,
    ast.FilterExpr: Compiler._filter,
    ast.PathExpr: Compiler._path,
    ast.FLWOR: Compiler._flwor,
    ast.Quantified: Compiler._quantified,
    ast.IfExpr: Compiler._if,
    ast.TryCatch: Compiler._try_catch,
    ast.FunctionCall: Compiler._function_call,
    ast.InstanceOf: Compiler._instance_of,
    ast.DirectElement: Compiler._direct_element,
    ast.ComputedElement: Compiler._computed_element,
    ast.ComputedAttribute: Compiler._computed_attribute,
    ast.ComputedText: Compiler._computed_text,
}
