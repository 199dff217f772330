"""The XQuery evaluator: a tree-walking interpreter over the AST.

Everything evaluates to a flat list of XDM items (see
:mod:`repro.xdm.sequence`).  The constructor semantics at the bottom of the
file implement the behaviours the paper analyses in detail: attribute-node
folding, the attribute-after-content error, adjacent-atomic space joining,
and content copying.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, List, Optional, Tuple

from ..xdm import (
    AttributeNode,
    CastError,
    CommentNode,
    ComparisonTypeError,
    DocumentNode,
    ElementNode,
    Node,
    ProcessingInstructionNode,
    Sequence,
    TextNode,
    UntypedAtomic,
    atomize,
    cast_atomic,
    effective_boolean_value,
    general_compare,
    is_node,
    sort_document_order,
    string_value_of_atomic,
    value_compare,
)
from ..xdm.compare import nodes_before
from . import ast
from .context import DynamicContext
from .errors import (
    XQueryDynamicError,
    XQueryTypeError,
)
from .functions import resolve_call
from .operators import arithmetic, negate, set_operation


def evaluate(expr: ast.Expr, ctx: DynamicContext) -> Sequence:
    """Evaluate *expr* in *ctx*, returning a flat sequence (Python list)."""
    method = _DISPATCH.get(type(expr))
    if method is None:
        raise XQueryDynamicError(f"cannot evaluate {type(expr).__name__}")
    return method(expr, ctx)


def _error(expr: ast.Expr, ctx: DynamicContext, message: str, code: str):
    """Build a dynamic error; galax_diagnostics mode strips the location."""
    error_class = XQueryTypeError if code.startswith("XPTY") else XQueryDynamicError
    if ctx.config.galax_diagnostics:
        return error_class(message, code=code)
    return error_class(message, code=code, line=expr.line, column=expr.column)


def ebv(value: Sequence, expr: ast.Expr, ctx: DynamicContext) -> bool:
    """Effective boolean value, with the engine's error code on failure."""
    try:
        return effective_boolean_value(value)
    except ValueError as exc:
        raise _error(expr, ctx, str(exc), "FORG0006") from exc


# -- simple expressions ------------------------------------------------------


def _eval_literal(expr: ast.Literal, ctx: DynamicContext) -> Sequence:
    return [expr.value]


def _eval_empty(expr: ast.EmptySequence, ctx: DynamicContext) -> Sequence:
    return []


def undefined_variable(expr: ast.VarRef, ctx: DynamicContext) -> XQueryDynamicError:
    """The error every evaluator raises for a variable no scope binds."""
    if ctx.config.galax_diagnostics:
        # The paper quotes this exact message (for *any* missing variable,
        # including the missing-$ mistake).
        return XQueryDynamicError(
            "Internal_Error: Variable '$glx:dot' not found.", code="XPDY0002"
        )
    return _error(expr, ctx, f"undefined variable ${expr.name}", "XPST0008")


def _eval_var(expr: ast.VarRef, ctx: DynamicContext) -> Sequence:
    try:
        return ctx.variables[expr.name]
    except KeyError:
        raise undefined_variable(expr, ctx) from None


def _eval_context_item(expr: ast.ContextItem, ctx: DynamicContext) -> Sequence:
    if ctx.item is None:
        raise _error(expr, ctx, "context item is absent", "XPDY0002")
    return [ctx.item]


def _eval_sequence(expr: ast.SequenceExpr, ctx: DynamicContext) -> Sequence:
    result: Sequence = []
    for item_expr in expr.items:
        result.extend(evaluate(item_expr, ctx))
    return result


def _eval_range(expr: ast.RangeExpr, ctx: DynamicContext) -> Sequence:
    start = _singleton_integer(evaluate(expr.start, ctx), expr, ctx)
    end = _singleton_integer(evaluate(expr.end, ctx), expr, ctx)
    if start is None or end is None or start > end:
        return []
    return list(range(start, end + 1))


def _singleton_integer(
    value: Sequence, expr: ast.Expr, ctx: DynamicContext
) -> Optional[int]:
    atoms = atomize(value)
    if not atoms:
        return None
    if len(atoms) > 1:
        raise _error(expr, ctx, "'to' requires singleton integer operands", "XPTY0004")
    atom = atoms[0]
    if isinstance(atom, bool) or not isinstance(atom, (int, Decimal, float)):
        if isinstance(atom, UntypedAtomic):
            try:
                return int(float(atom.value))
            except ValueError:
                pass
        raise _error(expr, ctx, "'to' requires integer operands", "XPTY0004")
    return int(atom)


def _eval_arithmetic(expr: ast.Arithmetic, ctx: DynamicContext) -> Sequence:
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    try:
        return arithmetic(expr.op, left, right)
    except XQueryTypeError as exc:
        raise _error(expr, ctx, exc.bare_message, exc.code) from exc


def _eval_unary(expr: ast.Unary, ctx: DynamicContext) -> Sequence:
    try:
        return negate(evaluate(expr.operand, ctx))
    except XQueryTypeError as exc:
        raise _error(expr, ctx, exc.bare_message, exc.code) from exc


def _eval_comparison(expr: ast.Comparison, ctx: DynamicContext) -> Sequence:
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if expr.style == "general":
        try:
            return [general_compare(expr.op, left, right)]
        except ComparisonTypeError as exc:
            raise _error(expr, ctx, str(exc), "XPTY0004") from exc
    if expr.style == "value":
        left_atoms = atomize(left)
        right_atoms = atomize(right)
        if not left_atoms or not right_atoms:
            return []
        if len(left_atoms) > 1 or len(right_atoms) > 1:
            raise _error(
                expr,
                ctx,
                f"value comparison '{expr.op}' requires singleton operands",
                "XPTY0004",
            )
        try:
            return [value_compare(expr.op, left_atoms[0], right_atoms[0])]
        except ComparisonTypeError as exc:
            raise _error(expr, ctx, str(exc), "XPTY0004") from exc
    return _node_comparison(expr, left, right, ctx)


def _node_comparison(
    expr: ast.Comparison, left: Sequence, right: Sequence, ctx: DynamicContext
) -> Sequence:
    if not left or not right:
        return []
    if len(left) > 1 or len(right) > 1 or not is_node(left[0]) or not is_node(right[0]):
        raise _error(
            expr, ctx, f"'{expr.op}' requires singleton node operands", "XPTY0004"
        )
    left_node, right_node = left[0], right[0]
    if expr.op == "is":
        return [left_node is right_node]
    before = nodes_before(left_node, right_node)
    if before is None:
        return [False]
    return [before if expr.op == "<<" else not before]


def _eval_boolean_op(expr: ast.BooleanOp, ctx: DynamicContext) -> Sequence:
    left = ebv(evaluate(expr.left, ctx), expr, ctx)
    if expr.op == "and":
        if not left:
            return [False]
        return [ebv(evaluate(expr.right, ctx), expr, ctx)]
    if left:
        return [True]
    return [ebv(evaluate(expr.right, ctx), expr, ctx)]


def _eval_set_op(expr: ast.SetOp, ctx: DynamicContext) -> Sequence:
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    try:
        return set_operation(expr.op, left, right)
    except XQueryTypeError as exc:
        raise _error(expr, ctx, exc.bare_message, exc.code) from exc


# -- paths ---------------------------------------------------------------------


_AXIS_FORWARD = {
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "attribute",
    "following-sibling",
}


def _axis_candidates(node: Node, axis: str) -> List[Node]:
    if axis == "child":
        return list(node.children)
    if axis == "attribute":
        return list(node.attributes)
    if axis == "self":
        return [node]
    if axis == "descendant":
        return list(node.descendants())
    if axis == "descendant-or-self":
        return list(node.descendants_or_self())
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "ancestor":
        return list(node.ancestors())
    if axis == "ancestor-or-self":
        return [node] + list(node.ancestors())
    if axis == "following-sibling":
        return list(node.following_siblings())
    if axis == "preceding-sibling":
        return list(node.preceding_siblings())
    raise XQueryDynamicError(f"unsupported axis {axis!r}")


def _test_matches(test: ast.NodeTest, node: Node, axis: str) -> bool:
    kind = test.kind
    if kind == "name":
        if axis == "attribute":
            return isinstance(node, AttributeNode) and node.name == test.name
        return isinstance(node, ElementNode) and node.name == test.name
    if kind == "wildcard":
        if axis == "attribute":
            return isinstance(node, AttributeNode)
        return isinstance(node, ElementNode)
    if kind == "node":
        return True
    if kind == "text":
        return isinstance(node, TextNode)
    if kind == "comment":
        return isinstance(node, CommentNode)
    if kind == "element":
        return isinstance(node, ElementNode) and (
            test.name is None or node.name == test.name
        )
    if kind == "attribute":
        return isinstance(node, AttributeNode) and (
            test.name is None or node.name == test.name
        )
    if kind == "document-node":
        return isinstance(node, DocumentNode)
    if kind == "processing-instruction":
        return isinstance(node, ProcessingInstructionNode) and (
            test.name is None or node.target == test.name
        )
    raise XQueryDynamicError(f"unsupported node test {kind!r}")


def _eval_axis_step(expr: ast.AxisStep, ctx: DynamicContext) -> Sequence:
    if not is_node(ctx.item):
        if ctx.item is None:
            raise _error(expr, ctx, "context item is absent in a path step", "XPDY0002")
        raise _error(
            expr, ctx, "a path step was applied to an atomic value", "XPTY0019"
        )
    candidates = [
        node
        for node in _axis_candidates(ctx.item, expr.axis)
        if _test_matches(expr.test, node, expr.axis)
    ]
    return _apply_predicates(candidates, expr.predicates, ctx)


def _apply_predicates(
    items: Sequence, predicates: List[ast.Expr], ctx: DynamicContext
) -> Sequence:
    for predicate in predicates:
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            focus = ctx.with_focus(item, position, size)
            result = evaluate(predicate, focus)
            if _is_numeric_predicate(result):
                if float(result[0]) == position:
                    kept.append(item)
            elif ebv(result, predicate, ctx):
                kept.append(item)
        items = kept
    return items


def _is_numeric_predicate(result: Sequence) -> bool:
    return (
        len(result) == 1
        and isinstance(result[0], (int, float, Decimal))
        and not isinstance(result[0], bool)
    )


def _eval_filter(expr: ast.FilterExpr, ctx: DynamicContext) -> Sequence:
    base = evaluate(expr.base, ctx)
    return _apply_predicates(base, expr.predicates, ctx)


def _eval_path(expr: ast.PathExpr, ctx: DynamicContext) -> Sequence:
    if expr.anchor in ("/", "//"):
        if not is_node(ctx.item):
            raise _error(
                expr, ctx, "'/' requires a node as the context item", "XPDY0002"
            )
        current: Sequence = [ctx.item.root()]
        if expr.anchor == "//":
            current = _descendant_or_self_nodes(current)
        if expr.first is not None:
            current = _apply_step(expr.first, current, ctx)
    else:
        current = _apply_step(expr.first, [ctx.item] if ctx.item is not None else [None], ctx, initial=True)
    for separator, step in expr.steps:
        if separator == "//":
            current = _descendant_or_self_nodes(current)
        current = _apply_step(step, current, ctx)
    return current


def _descendant_or_self_nodes(nodes: Sequence) -> Sequence:
    expanded: List[Node] = []
    for node in nodes:
        if not is_node(node):
            raise XQueryTypeError("'//' applied to a non-node", code="XPTY0019")
        expanded.extend(node.descendants_or_self())
    return sort_document_order(expanded)


def _apply_step(
    step: ast.Expr, context_items: Sequence, ctx: DynamicContext, initial: bool = False
) -> Sequence:
    """Apply one path step to every context item and normalize the result.

    Node results are deduplicated and sorted in document order; an
    all-atomic result is allowed (for final steps like ``$x/data(.)``);
    mixing nodes and atomics is a type error, per the spec.
    """
    if initial and not isinstance(step, ast.AxisStep):
        # The leading expression of a relative path is evaluated once in the
        # outer focus ($x/kid: $x is not evaluated per context node).
        return evaluate(step, ctx)
    ctx.check_deadline()
    results: Sequence = []
    size = len(context_items)
    saw_node = False
    saw_atomic = False
    for position, item in enumerate(context_items, start=1):
        focus = ctx.with_focus(item, position, size)
        for result_item in evaluate(step, focus):
            if is_node(result_item):
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


# -- FLWOR, quantifiers, conditionals -------------------------------------------


def _eval_flwor(expr: ast.FLWOR, ctx: DynamicContext) -> Sequence:
    tuples: List[Dict[str, Sequence]] = [dict()]
    check_deadline = ctx.deadline is not None
    for clause in expr.clauses:
        ctx.check_deadline()
        if isinstance(clause, ast.ForClause):
            tuples = _expand_for(clause, tuples, ctx)
        elif isinstance(clause, ast.LetClause):
            for bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                scope = ctx.with_variables(bindings)
                value = evaluate(clause.value, scope)
                if clause.declared_type is not None and not clause.declared_type.matches(value):
                    raise _error(
                        expr,
                        ctx,
                        f"let ${clause.var} value does not match "
                        f"declared type {clause.declared_type!r}",
                        "XPTY0004",
                    )
                bindings[clause.var] = value
        elif isinstance(clause, ast.WhereClause):
            kept = []
            for bindings in tuples:
                if check_deadline:
                    ctx.check_deadline()
                scope = ctx.with_variables(bindings)
                if ebv(evaluate(clause.condition, scope), clause.condition, ctx):
                    kept.append(bindings)
            tuples = kept
        elif isinstance(clause, ast.OrderByClause):
            tuples = _order_tuples(clause, tuples, ctx)
    result: Sequence = []
    for bindings in tuples:
        if check_deadline:
            ctx.check_deadline()
        scope = ctx.with_variables(bindings)
        result.extend(evaluate(expr.result, scope))
    return result


def _expand_for(
    clause: ast.ForClause,
    tuples: List[Dict[str, Sequence]],
    ctx: DynamicContext,
) -> List[Dict[str, Sequence]]:
    expanded = []
    check_deadline = ctx.deadline is not None
    for bindings in tuples:
        if check_deadline:
            ctx.check_deadline()
        scope = ctx.with_variables(bindings)
        source = evaluate(clause.source, scope)
        for position, item in enumerate(source, start=1):
            new_bindings = dict(bindings)
            new_bindings[clause.var] = [item]
            if clause.position_var is not None:
                new_bindings[clause.position_var] = [position]
            expanded.append(new_bindings)
    return expanded


class _OrderKey:
    """A sort key for ``order by``, ordered as XQuery 1.0 §3.8.3 says.

    Two values compare by the ``lt`` rule (``value_compare``), so a pair
    ``lt`` rejects, such as a boolean and a number, raises XPTY0004; an
    untyped key compares as a string.  ``()`` and NaN sit apart from the
    values, NaN equal to NaN: with ``empty least`` ``()`` < NaN < values,
    with ``empty greatest`` values < NaN < ``()``.  ``descending`` reverses
    the order.
    """

    __slots__ = ("rank", "value", "descending")

    def __init__(self, value: Sequence, descending: bool, empty_least: bool):
        atoms = atomize(value)
        if len(atoms) > 1:
            raise XQueryTypeError("order by key must be a singleton or empty")
        self.descending = descending
        self.value = None
        if not atoms:
            self.rank = 0 if empty_least else 2
            return
        atom = atoms[0]
        if isinstance(atom, float) and atom != atom:  # NaN
            self.rank = 1
            return
        self.value = atom.value if isinstance(atom, UntypedAtomic) else atom
        self.rank = 2 if empty_least else 0

    def _compare(self, other: "_OrderKey") -> int:
        """-1, 0 or 1 as *self* sorts before, with or after *other*, ascending."""
        if self.rank != other.rank:
            return -1 if self.rank < other.rank else 1
        left, right = self.value, other.value
        if left is None:  # both () or both NaN
            return 0
        try:
            if type(left) is not type(right):
                # a mixed pair takes the lt rule (to Python, a bool is an int)
                if value_compare("lt", left, right):
                    return -1
                return 1 if value_compare("gt", left, right) else 0
        except ComparisonTypeError as exc:
            raise XQueryTypeError(
                f"order by: cannot compare {type(left).__name__} "
                f"with {type(right).__name__}"
            ) from exc
        return -1 if left < right else (1 if right < left else 0)

    # the sort calls these once per comparison: same-typed values (the
    # common case) take Python's own order without _compare.

    def __lt__(self, other: "_OrderKey") -> bool:
        left, right = self.value, other.value
        if self.rank != other.rank or type(left) is not type(right) or left is None:
            order = self._compare(other)
            return order > 0 if self.descending else order < 0
        return right < left if self.descending else left < right

    def __eq__(self, other: "_OrderKey") -> bool:
        if type(self.value) is type(other.value):
            return self.rank == other.rank and self.value == other.value
        return self._compare(other) == 0


def _order_tuples(
    clause: ast.OrderByClause,
    tuples: List[Dict[str, Sequence]],
    ctx: DynamicContext,
) -> List[Dict[str, Sequence]]:
    decorated = []
    check_deadline = ctx.deadline is not None
    for index, bindings in enumerate(tuples):
        if check_deadline:
            ctx.check_deadline()
        scope = ctx.with_variables(bindings)
        keys = tuple(
            _OrderKey(evaluate(spec.key, scope), spec.descending, spec.empty_least)
            for spec in clause.specs
        )
        decorated.append((keys, index, bindings))
    decorated.sort(key=lambda entry: (entry[0], entry[1]))
    return [bindings for _, _, bindings in decorated]


def _eval_quantified(expr: ast.Quantified, ctx: DynamicContext) -> Sequence:
    return [_quantified_loop(expr, expr.bindings, ctx)]


def _quantified_loop(
    expr: ast.Quantified,
    bindings: List[Tuple[str, ast.Expr]],
    ctx: DynamicContext,
) -> bool:
    if not bindings:
        return ebv(evaluate(expr.satisfies, ctx), expr.satisfies, ctx)
    (var, source_expr), rest = bindings[0], bindings[1:]
    some = expr.quantifier == "some"
    for item in evaluate(source_expr, ctx):
        scope = ctx.with_variables({var: [item]})
        if _quantified_loop(expr, rest, scope) == some:
            return some
    return not some


def _eval_try_catch(expr: ast.TryCatch, ctx: DynamicContext) -> Sequence:
    """try/catch: the XQuery 3.0 extension (lesson 4 made real).

    Catches dynamic errors (including ``fn:error``); static errors were
    already raised at compile time and type errors raised while building
    the *handler* propagate normally.
    """
    try:
        return evaluate(expr.body, ctx)
    except XQueryDynamicError as error:
        if expr.catch_var is None:
            return evaluate(expr.handler, ctx)
        message = ElementNode("message")
        message.append(TextNode(getattr(error, "bare_message", str(error))))
        error_element = ElementNode("error")
        error_element.set_attribute("code", error.code)
        error_element.append(message)
        scope = ctx.with_variables({expr.catch_var: [error_element]})
        return evaluate(expr.handler, scope)


def _eval_typeswitch(expr: ast.Typeswitch, ctx: DynamicContext) -> Sequence:
    value = evaluate(expr.operand, ctx)
    for case in expr.cases:
        if case.sequence_type.matches(value):
            scope = ctx.with_variables({case.var: value}) if case.var else ctx
            return evaluate(case.result, scope)
    scope = (
        ctx.with_variables({expr.default_var: value}) if expr.default_var else ctx
    )
    return evaluate(expr.default, scope)


def _eval_if(expr: ast.IfExpr, ctx: DynamicContext) -> Sequence:
    if ebv(evaluate(expr.condition, ctx), expr.condition, ctx):
        return evaluate(expr.then_branch, ctx)
    return evaluate(expr.else_branch, ctx)


# -- functions --------------------------------------------------------------------


def _eval_function_call(expr: ast.FunctionCall, ctx: DynamicContext) -> Sequence:
    callee = resolve_call(expr, ctx.functions)
    if callee.kind == "builtin":
        args = [evaluate(arg, ctx) for arg in expr.args]
        return callee.builtin(ctx, args, expr)
    if callee.kind == "user":
        return _call_user_function(callee.declaration, expr, ctx)
    if callee.kind == "unknown":
        raise _error(
            expr,
            ctx,
            f"unknown function {expr.name}() with {len(expr.args)} argument(s)",
            "XPST0017",
        )
    # constructor functions: xs:integer("3") etc.
    name = callee.name
    if len(expr.args) != 1:
        raise _error(expr, ctx, f"{name} expects one argument", "XPST0017")
    value = atomize(evaluate(expr.args[0], ctx))
    if not value:
        return []
    if len(value) > 1:
        raise _error(expr, ctx, f"{name} requires a singleton", "XPTY0004")
    try:
        return [cast_atomic(value[0], name)]
    except CastError as exc:
        raise _error(expr, ctx, str(exc), "FORG0001") from exc


def _call_user_function(
    declaration: ast.FunctionDecl, expr: ast.FunctionCall, ctx: DynamicContext
) -> Sequence:
    if ctx.depth >= ctx.config.max_recursion_depth:
        raise _error(
            expr,
            ctx,
            f"recursion depth limit exceeded calling {declaration.name}()",
            "FOER0000",
        )
    ctx.check_deadline()
    bindings: Dict[str, Sequence] = {}
    for param, arg_expr in zip(declaration.params, expr.args):
        value = evaluate(arg_expr, ctx)
        if (
            ctx.config.type_check_calls
            and param.declared_type is not None
            and not param.declared_type.matches(value)
        ):
            raise _error(
                expr,
                ctx,
                f"argument ${param.name} of {declaration.name}() does not match "
                f"declared type {param.declared_type!r}",
                "XPTY0004",
            )
        bindings[param.name] = value
    scope = ctx.function_scope(bindings)
    result = evaluate(declaration.body, scope)
    if (
        ctx.config.type_check_calls
        and declaration.return_type is not None
        and not declaration.return_type.matches(result)
    ):
        raise _error(
            expr,
            ctx,
            f"result of {declaration.name}() does not match declared type "
            f"{declaration.return_type!r}",
            "XPTY0004",
        )
    return result


# -- type expressions ----------------------------------------------------------------


def _eval_instance_of(expr: ast.InstanceOf, ctx: DynamicContext) -> Sequence:
    return [expr.sequence_type.matches(evaluate(expr.operand, ctx))]


def _eval_cast(expr: ast.CastAs, ctx: DynamicContext) -> Sequence:
    value = atomize(evaluate(expr.operand, ctx))
    if not value:
        if expr.allow_empty:
            return []
        raise _error(expr, ctx, "cast of an empty sequence", "XPTY0004")
    if len(value) > 1:
        raise _error(expr, ctx, "cast requires a singleton", "XPTY0004")
    try:
        return [cast_atomic(value[0], expr.type_name)]
    except CastError as exc:
        raise _error(expr, ctx, str(exc), "FORG0001") from exc


def _eval_castable(expr: ast.CastableAs, ctx: DynamicContext) -> Sequence:
    value = atomize(evaluate(expr.operand, ctx))
    if not value:
        return [expr.allow_empty]
    if len(value) > 1:
        return [False]
    try:
        cast_atomic(value[0], expr.type_name)
        return [True]
    except CastError:
        return [False]


def _eval_treat(expr: ast.TreatAs, ctx: DynamicContext) -> Sequence:
    value = evaluate(expr.operand, ctx)
    if not expr.sequence_type.matches(value):
        raise _error(
            expr,
            ctx,
            f"treat as: value does not match {expr.sequence_type!r}",
            "XPDY0050",
        )
    return value


# -- constructors -----------------------------------------------------------------
#
# This is the code the paper's data-structure section is about.


def construct_element(
    name: str,
    content_items: Sequence,
    ctx: DynamicContext,
    expr: ast.Expr,
    literal_attributes: Optional[List[AttributeNode]] = None,
) -> ElementNode:
    """Assemble an element from a constructor's evaluated content sequence.

    Implements the draft rules the paper discusses:

    * *leading* attribute nodes in the content become attributes of the
      element ("We are not sure why only leading attributes are treated
      this way");
    * an attribute node appearing after other content raises ``XQTY0024``
      (the error row of the paper's sequence-indexing table);
    * duplicate attribute names resolve per
      ``config.duplicate_attribute_mode`` — ``last``/``first`` are the two
      results the paper says are legal, ``keep`` is the Galax bug, and
      ``error`` is the eventual standard;
    * adjacent atomic values join with a single space into one text node;
    * content nodes are copied (fresh identity), as the spec requires.
    """
    element = ElementNode(name)
    attributes: List[AttributeNode] = list(literal_attributes or [])
    children: List[Node] = []
    pending_atoms: List[str] = []
    seen_content = False

    def flush_atoms() -> None:
        if pending_atoms:
            children.append(TextNode(" ".join(pending_atoms)))
            pending_atoms.clear()

    for item in content_items:
        if isinstance(item, AttributeNode):
            if seen_content:
                raise _error(
                    expr,
                    ctx,
                    f"attribute node {item.name!r} follows non-attribute content",
                    "XQTY0024",
                )
            attributes.append(item.copy())
            continue
        seen_content = True
        if is_node(item):
            flush_atoms()
            if isinstance(item, DocumentNode):
                for child in item.children:
                    children.append(child.copy())
            else:
                children.append(item.copy())
        else:
            pending_atoms.append(string_value_of_atomic(item))
    flush_atoms()

    _attach_attributes(element, attributes, ctx, expr)
    previous_text: Optional[TextNode] = None
    for child in children:
        # merge adjacent text nodes, as the data model requires.
        if isinstance(child, TextNode) and previous_text is not None:
            previous_text.text += child.text
            continue
        element.append(child)
        previous_text = child if isinstance(child, TextNode) else None
    return element


def _attach_attributes(
    element: ElementNode,
    attributes: List[AttributeNode],
    ctx: DynamicContext,
    expr: ast.Expr,
) -> None:
    mode = ctx.config.duplicate_attribute_mode
    if mode == "keep":
        # Galax-bug mode: both duplicates survive, violating the data model.
        for attribute in attributes:
            element.append_duplicate_attribute(attribute)
        return
    seen: Dict[str, AttributeNode] = {}
    order: List[str] = []
    for attribute in attributes:
        if attribute.name in seen:
            if mode == "error":
                raise _error(
                    expr,
                    ctx,
                    f"duplicate attribute name {attribute.name!r}",
                    "XQDY0025",
                )
            if mode == "first":
                continue
            seen[attribute.name] = attribute  # mode == "last"
        else:
            seen[attribute.name] = attribute
            order.append(attribute.name)
    for name in order:
        element.set_attribute_node(seen[name])


def _enclosed_items(items: Sequence) -> Sequence:
    """Convert one enclosed expression's result for element content.

    Runs of adjacent atomic values become a single text node joined with
    spaces; nodes (including attribute nodes, which fold later) pass
    through untouched.
    """
    result: Sequence = []
    pending: List[str] = []
    for item in items:
        if is_node(item):
            if pending:
                result.append(TextNode(" ".join(pending)))
                pending = []
            result.append(item)
        else:
            pending.append(string_value_of_atomic(item))
    if pending:
        result.append(TextNode(" ".join(pending)))
    return result


def _eval_direct_element(expr: ast.DirectElement, ctx: DynamicContext) -> Sequence:
    literal_attributes = [
        AttributeNode(name, _attribute_value_text(parts, ctx))
        for name, parts in expr.attributes
    ]
    duplicate_names = {a.name for a in literal_attributes}
    if len(duplicate_names) != len(literal_attributes):
        raise _error(expr, ctx, "duplicate attribute in direct constructor", "XQST0040")
    content_items: Sequence = []
    for part in expr.content:
        if isinstance(part, ast.DirectText):
            content_items.append(TextNode(part.text))
        elif isinstance(part, ast.DirectComment):
            content_items.append(CommentNode(part.text))
        elif isinstance(part, ast.DirectPI):
            content_items.append(ProcessingInstructionNode(part.target, part.text))
        elif isinstance(part, ast.DirectElement):
            content_items.extend(_eval_direct_element(part, ctx))
        else:
            # space-joining of adjacent atomics applies *within* one
            # enclosed expression; across enclosures text just abuts.
            content_items.extend(_enclosed_items(evaluate(part, ctx)))
    return [
        construct_element(
            expr.name, content_items, ctx, expr, literal_attributes=literal_attributes
        )
    ]


def _attribute_value_text(parts: List[object], ctx: DynamicContext) -> str:
    pieces: List[str] = []
    for part in parts:
        if isinstance(part, str):
            pieces.append(part)
        else:
            value = evaluate(part, ctx)
            pieces.append(
                " ".join(
                    item.string_value() if is_node(item) else string_value_of_atomic(item)
                    for item in value
                )
            )
    return "".join(pieces)


def _eval_direct_comment(expr: ast.DirectComment, ctx: DynamicContext) -> Sequence:
    return [CommentNode(expr.text)]


def _constructor_name(expr, ctx: DynamicContext) -> str:
    if expr.name is not None:
        return expr.name
    value = atomize(evaluate(expr.name_expr, ctx))
    if len(value) != 1:
        raise _error(expr, ctx, "computed constructor name must be a singleton", "XPTY0004")
    return string_value_of_atomic(value[0])


def _eval_computed_element(expr: ast.ComputedElement, ctx: DynamicContext) -> Sequence:
    name = _constructor_name(expr, ctx)
    content = evaluate(expr.content, ctx) if expr.content is not None else []
    return [construct_element(name, content, ctx, expr)]


def _eval_computed_attribute(expr: ast.ComputedAttribute, ctx: DynamicContext) -> Sequence:
    name = _constructor_name(expr, ctx)
    content = atomize(evaluate(expr.content, ctx)) if expr.content is not None else []
    text = " ".join(string_value_of_atomic(item) for item in content)
    return [AttributeNode(name, text)]


def _eval_computed_text(expr: ast.ComputedText, ctx: DynamicContext) -> Sequence:
    content = atomize(evaluate(expr.content, ctx)) if expr.content is not None else []
    if not content:
        return []
    return [TextNode(" ".join(string_value_of_atomic(item) for item in content))]


def _eval_computed_comment(expr: ast.ComputedComment, ctx: DynamicContext) -> Sequence:
    content = atomize(evaluate(expr.content, ctx)) if expr.content is not None else []
    return [CommentNode(" ".join(string_value_of_atomic(item) for item in content))]


def _eval_computed_document(expr: ast.ComputedDocument, ctx: DynamicContext) -> Sequence:
    content = evaluate(expr.content, ctx) if expr.content is not None else []
    document = DocumentNode()
    for item in content:
        if isinstance(item, AttributeNode):
            raise _error(
                expr, ctx, "a document node cannot contain attribute nodes", "XPTY0004"
            )
        if is_node(item):
            document.append(item.copy())
        else:
            document.append(TextNode(string_value_of_atomic(item)))
    return [document]


_DISPATCH = {
    ast.Literal: _eval_literal,
    ast.EmptySequence: _eval_empty,
    ast.VarRef: _eval_var,
    ast.ContextItem: _eval_context_item,
    ast.SequenceExpr: _eval_sequence,
    ast.RangeExpr: _eval_range,
    ast.Arithmetic: _eval_arithmetic,
    ast.Unary: _eval_unary,
    ast.Comparison: _eval_comparison,
    ast.BooleanOp: _eval_boolean_op,
    ast.SetOp: _eval_set_op,
    ast.AxisStep: _eval_axis_step,
    ast.FilterExpr: _eval_filter,
    ast.PathExpr: _eval_path,
    ast.FLWOR: _eval_flwor,
    ast.Quantified: _eval_quantified,
    ast.IfExpr: _eval_if,
    ast.Typeswitch: _eval_typeswitch,
    ast.TryCatch: _eval_try_catch,
    ast.FunctionCall: _eval_function_call,
    ast.InstanceOf: _eval_instance_of,
    ast.CastAs: _eval_cast,
    ast.CastableAs: _eval_castable,
    ast.TreatAs: _eval_treat,
    ast.DirectElement: _eval_direct_element,
    ast.DirectComment: _eval_direct_comment,
    ast.ComputedElement: _eval_computed_element,
    ast.ComputedAttribute: _eval_computed_attribute,
    ast.ComputedText: _eval_computed_text,
    ast.ComputedComment: _eval_computed_comment,
    ast.ComputedDocument: _eval_computed_document,
}
