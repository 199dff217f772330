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

And every predicate, here and in the algebra executor, is classified by
one function, :func:`classify_predicate`, into one :class:`Predicate`
shape (positional slices, attribute filters, the calculus property
filter, value comparisons whose right side runs once, the generic loop),
and filters its candidates through one function, :func:`run_predicates`.

Every path, here and in the algebra executor (and in lowering), is split
by one function, :func:`path_pairs`, into its lead and ``(separator,
step)`` pairs, an anchor becoming the first step's separator; it starts
through one, :func:`start_path` (the root, the context item or the lead's
items), and its steps run through one, :func:`run_steps`.

Every user-function call, here and in the algebra executor, enters through
one function, :func:`call_user_function`: the depth guard, the deadline,
the arguments in order, the function scope, the body and the declared-type
checks.

:meth:`Compiler.thunk` is the one closure memo of a program: the algebra's
fallback leaves, predicate parts and function bodies each compile once.
"""

from __future__ import annotations

import threading
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
    number_value,
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
from .functions import BOOLEAN_BUILTINS, resolve_call
from .operators import arithmetic
from .optimizer import Effects

#: A compiled expression: call it with a dynamic context, get a sequence.
Thunk = Callable[[DynamicContext], Sequence]


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
    test, whether a ``//`` precedes it, the name index, if any, that
    answers it over an element, and its classified predicates."""

    __slots__ = ("expr", "axis", "test", "expand", "index", "predicates")

    def __init__(self, expr: ast.AxisStep, separator: str, predicates: List[Predicate]):
        self.expr = expr
        self.axis = expr.axis
        self.test = expr.test
        self.expand = separator == "//"
        self.index = _NAME_INDEXES.get(expr.axis) if expr.test.kind == "name" else None
        self.predicates = predicates


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
    closure: Closure,
    bindings: Optional[Dict[str, Sequence]],
    current: Sequence,
    ordered: bool,
    non_nested: bool,
    ctx: DynamicContext,
    groups: Optional[List[Sequence]] = None,
):
    """Run one axis step over the context items *current*.

    Checks the deadline, expands a preceding ``//``, raises XPDY0002 or
    XPTY0019 for a context item that is not a node, scans each item's
    candidates and filters them through the step's predicates
    (:func:`run_predicates` with *closure* and *bindings*), and sorts the
    concatenation unless :func:`step_order` proves it ordered.  Returns
    ``(results, ordered, non_nested)``.  With *groups*, each item's
    filtered candidates are appended to it instead, nothing is
    concatenated or sorted, and the returned ``ordered`` says whether the
    groups' concatenation is ordered.
    """
    if ctx.deadline is not None:
        ctx.check_deadline()
    if step.expand:
        current = expand_descendants(current, ordered, non_nested)
        ordered, non_nested = True, False
    ordered, non_nested = step_order(step.axis, len(current) == 1, ordered, non_nested)
    predicates = step.predicates
    if len(current) == 1 and groups is None:
        item = current[0]
        if not isinstance(item, Node):
            _raise_non_node_step(step.expr, ctx, item)
        results = axis_scan(step, item)
        if predicates:
            results = run_predicates(predicates, closure, bindings, results, ctx)
    else:
        results = []
        for item in current:
            if not isinstance(item, Node):
                _raise_non_node_step(step.expr, ctx, item)
            found = axis_scan(step, item)
            if predicates:
                found = run_predicates(predicates, closure, bindings, found, ctx)
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
        # one mutable focus for the whole scan; see GenericPred.filter.
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


# -- the fast path: the closure compiler's and the algebra executor's --------


def path_pairs(expr: ast.PathExpr) -> Tuple[Optional[ast.Expr], List[Tuple[str, ast.Expr]]]:
    """A path as its leading expression (None when it starts at the root or
    at the context item) and its ``(separator, step)`` pairs.

    An anchor is the first step's separator (``//a`` is the root's
    ``("//", a)``), and a leading axis step is a ``/`` step from the
    context item.
    """
    pairs = list(expr.steps)
    if expr.anchor is not None:
        if expr.first is not None:
            pairs.insert(0, (expr.anchor, expr.first))
        return None, pairs
    if isinstance(expr.first, ast.AxisStep):
        pairs.insert(0, ("/", expr.first))
        return None, pairs
    return expr.first, pairs


def start_path(
    expr: ast.PathExpr, lead: Optional[Sequence], ctx: DynamicContext
) -> Tuple[Sequence, bool, bool]:
    """A path's first context items, as ``(items, ordered, non_nested)``.

    An anchored path starts at the context item's root, and raises XPDY0002
    when the context item is not a node.  A path without a lead starts at
    the context item (an absent one stays: the first step raises).
    Otherwise *lead* holds the items of the leading expression, evaluated
    once in the outer focus as the treewalk does; they count as ordered
    when there is at most one.
    """
    if expr.anchor is not None:
        if not isinstance(ctx.item, Node):
            raise _error(expr, ctx, "'/' requires a node as the context item", "XPDY0002")
        return [ctx.item.root()], True, True
    if lead is None:
        return [ctx.item], True, True
    single = len(lead) <= 1
    return lead, single, single


def run_steps(
    steps: Sequence,
    closure: Closure,
    bindings: Optional[Dict[str, Sequence]],
    start: Tuple[Sequence, bool, bool],
    ctx: DynamicContext,
) -> Tuple[Sequence, bool, bool]:
    """Run a path's steps from *start* (see :func:`start_path`); returns the
    last ``(items, ordered, non_nested)``.

    A :class:`PathStep` runs through :func:`run_path_step` with *closure*
    and *bindings*; any other step is the closure compiler's ``(expand,
    thunk)``, which runs through :func:`_apply_step` after its ``//``
    expansion, if any.
    """
    current, ordered, non_nested = start
    for step in steps:
        if isinstance(step, PathStep):
            current, ordered, non_nested = run_path_step(
                step, closure, bindings, current, ordered, non_nested, ctx
            )
            continue
        expand, thunk = step
        if expand:
            current = expand_descendants(current, ordered, non_nested)
        current = _apply_step(thunk, current, ctx)
        ordered = non_nested = False
    return current, ordered, non_nested


# -- the fast predicate: the closure compiler's and the algebra executor's ---

#: Resolves an expression to its closure, compiled on first use: the
#: algebra's ``AlgebraProgram.thunk`` or the compiler's :meth:`Compiler.thunk`.
Closure = Callable[[ast.Expr], Thunk]


class Predicate:
    """One classified predicate as the fast engines run it; ``expr`` is the
    predicate as parsed.  Each shape's ``filter(items, ctx, closure)`` keeps
    the candidates it selects from one list, as the treewalk's
    ``_apply_predicates`` does, resolving closures through *closure*;
    ``describe()`` is its explain text.
    """

    __slots__ = ("expr",)

    #: whether the predicate decides each candidate from the candidate and
    #: its position alone: it reads no variable and reaches no ``fn:trace``
    #: or ``fn:error``.  Such a predicate runs without the tuple's
    #: variables, and a join probe may replay its matches from a memo.
    candidate_only = True

    def __init__(self, expr: ast.Expr):
        self.expr = expr

    def reference_test(self, item, position: int, size: int, ctx, closure) -> bool:
        """The treewalk's test of one candidate the shape does not decide."""
        expr = self.expr
        result = closure(expr)(ctx.with_focus(item, position, size))
        if _is_numeric_predicate(result):
            return float(result[0]) == position
        return ebv(result, expr, ctx)


class PositionalPred(Predicate):
    """``[k]`` and ``[position() op k]`` with an integer literal, and
    ``[last()]``: a slice of the candidate list, never a per-item test."""

    __slots__ = ("op", "k", "slice")

    def __init__(self, expr: ast.Expr, op: str, k: int):
        super().__init__(expr)
        self.op = op  # "eq" | "le" | "lt" | "ge" | "gt" | "last"
        self.k = k
        self.slice = _POSITIONAL_SLICES[op](k)

    def filter(self, items, ctx, closure):
        return items[self.slice]

    def key(self) -> tuple:
        return ("position", self.op, self.k)

    def describe(self) -> str:
        if self.op == "last":
            return "position() = last()"
        symbol = {"eq": "=", "le": "<=", "lt": "<", "ge": ">=", "gt": ">"}[self.op]
        return f"position() {symbol} {self.k}"


class AttrMembershipPred(Predicate):
    """``[@name = ("a", "b", ...)]`` — general comparison, string literals.

    Untyped attribute values compare to string literals *as strings*, so a
    frozenset membership test is exact — including the existential sweep
    over duplicated attributes in ``keep`` quirk mode.
    """

    __slots__ = ("name", "values")

    def __init__(self, expr: ast.Expr, name: str, values: frozenset):
        super().__init__(expr)
        self.name = name
        self.values = values

    def filter(self, items, ctx, closure):
        name, values = self.name, self.values
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            # only elements carry the name index (a per-item getattr by
            # string was measurably slower on scan-sized lists)
            if isinstance(item, ElementNode):
                matches = item.attributes_by_name(name)
                if len(matches) == 1:  # avoid a generator per item
                    if matches[0].value in values:
                        kept.append(item)
                elif any(a.value in values for a in matches):
                    kept.append(item)
            elif self.reference_test(item, position, size, ctx, closure):
                kept.append(item)
        return kept

    def key(self) -> tuple:
        return ("in", self.name, self.values)

    def describe(self) -> str:
        options = ", ".join(repr(v) for v in sorted(self.values))
        return f"@{self.name} in ({options})"


class AttrValueEqPred(Predicate):
    """``[@name eq "literal"]`` — value comparison against one string."""

    __slots__ = ("name", "value")

    def __init__(self, expr: ast.Expr, name: str, value: str):
        super().__init__(expr)
        self.name = name
        self.value = value

    def filter(self, items, ctx, closure):
        name, value = self.name, self.value
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            if isinstance(item, ElementNode):
                matches = item.attributes_by_name(name)
                if len(matches) == 1:
                    if matches[0].value == value:
                        kept.append(item)
                    continue
                if not matches:
                    continue
                # >1 attributes (keep mode): the reference raises
            if self.reference_test(item, position, size, ctx, closure):
                kept.append(item)
        return kept

    def key(self) -> tuple:
        return ("eq", self.name, self.value)

    def describe(self) -> str:
        return f"@{self.name} eq {self.value!r}"


class AttrExistsPred(Predicate):
    """``[@name]`` — keep elements carrying the attribute."""

    __slots__ = ("name",)

    def __init__(self, expr: ast.Expr, name: str):
        super().__init__(expr)
        self.name = name

    def filter(self, items, ctx, closure):
        name = self.name
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            if isinstance(item, ElementNode):
                if item.attributes_by_name(name):
                    kept.append(item)
            elif self.reference_test(item, position, size, ctx, closure):
                kept.append(item)
        return kept

    def key(self) -> tuple:
        return ("exists", self.name)

    def describe(self) -> str:
        return f"exists(@{self.name})"


class GenericPred(Predicate):
    """Any other predicate: its closure runs once per candidate, or, when
    the closure carries its compiled effective boolean value (a boolean
    operator, a general or value comparison, a boolean builtin: never a
    number), that test does.  The shapes below subclass it: each decides
    most candidates itself, and explain shows it as this generic
    predicate."""

    candidate_only = False

    def describe(self) -> str:
        return f"generic predicate @{self.expr.line}:{self.expr.column}"

    def filter(self, items, ctx, closure):
        expr = self.expr
        thunk = closure(expr)
        test = getattr(thunk, "ebv", None)
        # One mutable focus serves every candidate: derived contexts copy
        # the focus fields at clone time, and evaluation is eager, so
        # nothing observes the focus after its item's closure returns.
        focus = ctx._clone()
        focus.size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            focus.item = item
            focus.position = position
            if test is not None:
                if test(focus):
                    kept.append(item)
                continue
            result = thunk(focus)
            if _is_numeric_predicate(result):
                if float(result[0]) == position:
                    kept.append(item)
            elif ebv(result, expr, ctx):
                kept.append(item)
        return kept


class FloatPositionPred(GenericPred):
    """``[k]`` with a ``xs:double`` literal: the candidate at an integral
    *k*, else none."""

    __slots__ = ()
    candidate_only = True

    def filter(self, items, ctx, closure):
        k = self.expr.value
        if k.is_integer() and 1 <= k <= len(items):
            return [items[int(k) - 1]]
        return []


class ValueComparePred(GenericPred):
    """``[@name op R]`` (``name`` is the attribute) or ``[name(.) op R]``
    (``name`` is None), a value comparison whose right side ``R``
    :class:`~.optimizer.Effects`, the one evaluate-once rule, finds nothing
    in: ``R`` runs once per candidate list, not once per candidate.

    These are the shapes the docgen and calculus sources hammer
    (``node[@id eq string($id)]``, ``edge[@source eq $n/@id]``, and
    ``local:child-element-named``'s ``*[name(.) eq $name]``).  ``R`` first
    runs at the first element candidate, after its attribute lookup, as
    the treewalk orders them; an empty side skips before the singleton
    check, and an eq/ne against one string-like atom compares strings.  A
    node that is not an element has no attributes; an atomic candidate gets
    the treewalk's test.
    """

    __slots__ = ("name",)

    def __init__(self, expr: ast.Comparison, name: Optional[str]):
        super().__init__(expr)
        self.name = name

    def filter(self, items, ctx, closure):
        expr, name = self.expr, self.name
        keep_equal = expr.op == "eq"
        size = len(items)
        kept = []
        right = target = None
        for position, item in enumerate(items, start=1):
            if not isinstance(item, Node):
                if self.reference_test(item, position, size, ctx, closure):
                    kept.append(item)
                continue
            if name is None:
                matches, value = None, item.name or ""  # fn:name of a node
            else:
                matches = item.attributes_by_name(name) if isinstance(item, ElementNode) else []
                value = matches[0].value if len(matches) == 1 else None
            if right is None:
                right = atomize(closure(expr.right)(ctx))
                if len(right) == 1 and expr.op in ("eq", "ne"):
                    atom = right[0]
                    atom = atom.value if isinstance(atom, UntypedAtomic) else atom
                    target = atom if isinstance(atom, str) else None
            if not right or matches == []:
                continue
            if target is not None and value is not None:
                if (value == target) == keep_equal:
                    kept.append(item)
            elif _value_compare(expr, atomize(matches or [value]), right, ctx):
                kept.append(item)
        return kept


class PropertyFilterPred(GenericPred):
    """The calculus property filter, decided without the closure compiler.

    The classifier recognizes exactly the predicate
    :meth:`~repro.querycalc.via_xquery.XQueryCalculusBackend._compile_filter_property`
    emits for ``name op value``: ``contains(string(P), value)``, or ``P and
    (if (P/@type = ("integer", "float")) then NUMERIC else if (P/@type eq
    "boolean") then BOOLEAN else STRINGS)`` with ``P`` the
    ``property[@name eq name]`` child.  :meth:`decide` evaluates it per
    node with the engine's own cast (``number_value``) and comparison
    (``value_compare``).  It answers None for a node the shape cannot
    decide (not an element, two ``property`` children of that name, a
    repeated ``name`` or ``type`` attribute), and the filter runs the
    generic test on that node, so errors stay the reference's.

    ``number`` is ``number(value)``, or None when the numeric branch is
    ``false()`` (a literal that does not parse); ``truth`` is the boolean
    branch's ``true()``/``false()``.
    """

    __slots__ = ("name", "op", "value", "number", "truth")
    candidate_only = True

    def __init__(
        self,
        expr: ast.Expr,
        name: str,
        op: str,
        value: str,
        number: Optional[float] = None,
        truth: bool = False,
    ):
        super().__init__(expr)
        self.name = name
        self.op = op  # "eq" | "ne" | "lt" | "le" | "gt" | "ge" | "contains"
        self.value = value
        self.number = number
        self.truth = truth

    def filter(self, items, ctx, closure):
        decide = self.decide
        size = len(items)
        kept = []
        for position, item in enumerate(items, start=1):
            keep = decide(item)
            if keep is None:
                keep = self.reference_test(item, position, size, ctx, closure)
            if keep:
                kept.append(item)
        return kept

    def decide(self, item) -> Optional[bool]:
        if not isinstance(item, ElementNode):
            return None
        prop = None
        for child in item.children_by_name("property"):
            names = child.attributes_by_name("name")
            if len(names) > 1:
                return None
            if names and names[0].value == self.name:
                if prop is not None:
                    return None
                prop = child
        op = self.op
        if prop is None:
            # string(()) is "", and `P and ...` is false on an empty P.
            return self.value in "" if op == "contains" else False
        text = prop.string_value()
        if op == "contains":
            return self.value in text  # fn:contains is a substring test
        types = prop.attributes_by_name("type")
        if len(types) > 1:
            return None
        kind = types[0].value if types else None
        if kind == "integer" or kind == "float":
            if self.number is None:
                return False
            return value_compare(op, number_value([text]), self.number)
        if kind == "boolean":
            return value_compare(op, text == "true", self.truth)
        return value_compare(op, text, self.value)


def _value_compare(expr: ast.Comparison, left: Sequence, right: Sequence, ctx) -> bool:
    """A value comparison of two non-empty atom lists, raising XPTY0004 at
    *expr* for a non-singleton or incomparable side, as the treewalk does."""
    if len(left) > 1 or len(right) > 1:
        raise _error(
            expr, ctx, f"value comparison '{expr.op}' requires singleton operands", "XPTY0004"
        )
    try:
        return value_compare(expr.op, left[0], right[0])
    except ComparisonTypeError as exc:
        raise _error(expr, ctx, str(exc), "XPTY0004") from exc


def run_predicates(
    predicates: List[Predicate],
    closure: Closure,
    bindings: Optional[Dict[str, Sequence]],
    items: Sequence,
    ctx: DynamicContext,
) -> Sequence:
    """Filter the candidates *items* through *predicates*, in order.

    Positions renumber between predicates, as the treewalk's
    ``_apply_predicates`` does.  *bindings* are the algebra executor's
    tuple variables, added to *ctx* only for a predicate that may read them
    (the closure compiler's context already holds its variables).
    *items* and *ctx* come last, so a step's filter is a ``partial``.
    """
    scope = None if bindings else ctx
    for predicate in predicates:
        if not items:
            break
        if predicate.candidate_only:
            items = predicate.filter(items, ctx, closure)
        else:
            if scope is None:
                scope = ctx.with_variables(bindings)
            items = predicate.filter(items, scope, closure)
    return items


# -- the one predicate classifier ------------------------------------------

#: the candidates ``position() op k`` keeps, as a slice of the list
_POSITIONAL_SLICES = {
    "last": lambda k: slice(-1, None),
    "eq": lambda k: slice(max(k - 1, 0), max(k, 0)),
    "le": lambda k: slice(0, max(k, 0)),
    "lt": lambda k: slice(0, max(k - 1, 0)),
    "ge": lambda k: slice(max(k - 1, 0), None),
    "gt": lambda k: slice(max(k, 0), None),
}
#: the value and general operators ``position() op k`` slices on
_POSITIONAL_OPS = {"eq": "eq", "le": "le", "lt": "lt", "ge": "ge", "gt": "gt"}
_POSITIONAL_OPS.update({"=": "eq", "<=": "le", "<": "lt", ">=": "ge", ">": "gt"})
_POSITIONAL_SWAP = {"eq": "eq", "le": "ge", "lt": "gt", "ge": "le", "gt": "lt"}


def classify_predicates(
    predicates: List[ast.Expr], functions: Dict[Tuple[str, int], ast.FunctionDecl], effects: Effects
) -> List[Predicate]:
    """Each predicate as the first shape that matches it (see
    :func:`classify_predicate`)."""
    return [classify_predicate(p, functions, effects) for p in predicates]


def classify_predicate(
    pred: ast.Expr, functions: Dict[Tuple[str, int], ast.FunctionDecl], effects: Effects
) -> Predicate:
    """The one predicate rule: positional, attribute filters over literals,
    the calculus property filter, ``@a``/``name(.)`` value comparisons with
    a right side :class:`~.optimizer.Effects` finds nothing in, and the
    generic loop, in that order.  Calls are resolved over
    *functions*, so a shadowed builtin is no shape."""
    if isinstance(pred, ast.Literal):
        value = pred.value
        if isinstance(value, int) and not isinstance(value, bool):
            return PositionalPred(pred, "eq", value)
        if isinstance(value, float):
            return FloatPositionPred(pred)
    if _builtin_args(pred, "last", 0, functions) is not None:
        return PositionalPred(pred, "last", 0)
    if isinstance(pred, ast.Comparison):
        shaped = _comparison_pred(pred, functions, effects)
        if shaped is not None:
            return shaped
    name = _attr_step_name(pred)
    if name is not None:
        return AttrExistsPred(pred, name)
    shaped = _property_filter(pred, functions)
    if shaped is not None:
        return shaped
    return GenericPred(pred)


def _comparison_pred(pred: ast.Comparison, functions, effects) -> Optional[Predicate]:
    positional = _positional_comparison(pred, functions)
    if positional is not None:
        return positional
    for attr_side, value_side in ((pred.left, pred.right), (pred.right, pred.left)):
        name = _attr_step_name(attr_side)
        if name is None:
            continue
        if pred.style == "general" and pred.op == "=":
            values = _string_literals(value_side)
            if values is not None:
                return AttrMembershipPred(pred, name, frozenset(values))
        if pred.style == "value" and pred.op == "eq":
            value = _string_literal(value_side)
            if value is not None:
                return AttrValueEqPred(pred, name, value)
    if pred.style != "value":
        return None
    left = pred.left
    name = _attr_step_name(left)
    if name is None and not (
        isinstance(left, ast.FunctionCall)
        and all(isinstance(arg, ast.ContextItem) for arg in left.args)
        and resolve_call(left, functions).is_builtin("name")
    ):
        return None
    if effects.of(pred.right):
        return None
    return ValueComparePred(pred, name)


def _positional_comparison(pred: ast.Comparison, functions) -> Optional[PositionalPred]:
    """``position() op k`` or ``k op position()`` with an integer literal."""
    op = _POSITIONAL_OPS.get(pred.op)
    if op is None:
        return None
    left, right = pred.left, pred.right
    if _builtin_args(left, "position", 0, functions) is not None:
        literal = right
    elif _builtin_args(right, "position", 0, functions) is not None:
        literal, op = left, _POSITIONAL_SWAP[op]
    else:
        return None
    if (
        isinstance(literal, ast.Literal)
        and isinstance(literal.value, int)
        and not isinstance(literal.value, bool)
    ):
        return PositionalPred(pred, op, literal.value)
    return None


def _property_filter(pred: ast.Expr, functions) -> Optional[PropertyFilterPred]:
    """The calculus property filter (see :class:`PropertyFilterPred`),
    matched node for node against what the calculus compiler emits."""
    args = _builtin_args(pred, "contains", 2, functions)
    if args is not None:
        name = _string_of_property(args[0], functions)
        value = _string_literal(args[1])
        if name is None or value is None:
            return None
        return PropertyFilterPred(pred, name, "contains", value)
    if not (isinstance(pred, ast.BooleanOp) and pred.op == "and"):
        return None
    name = _property_name(pred.left)
    outer = pred.right
    if name is None or not isinstance(outer, ast.IfExpr):
        return None
    inner = outer.else_branch
    if not (
        isinstance(inner, ast.IfExpr)
        and _is_type_test(outer.condition, name, "=", ("integer", "float"))
        and _is_type_test(inner.condition, name, "eq", ("boolean",))
    ):
        return None
    # else: string(P) op "value"
    strings = inner.else_branch
    op = _value_op(strings)
    if op is None or _string_of_property(strings.left, functions) != name:
        return None
    value = _string_literal(strings.right)
    if value is None:
        return None
    # then: (string(P) eq "true") op true()|false()
    boolean = inner.then_branch
    if _value_op(boolean) != op or _value_op(boolean.left) != "eq":
        return None
    if (
        _string_of_property(boolean.left.left, functions) != name
        or _string_literal(boolean.left.right) != "true"
    ):
        return None
    if _builtin_args(boolean.right, "true", 0, functions) is not None:
        truth = True
    elif _builtin_args(boolean.right, "false", 0, functions) is not None:
        truth = False
    else:
        return None
    # then: number(string(P)) op number("value"), or false()
    numeric = outer.then_branch
    number = None
    if _builtin_args(numeric, "false", 0, functions) is None:
        if _value_op(numeric) != op:
            return None
        left = _builtin_args(numeric.left, "number", 1, functions)
        right = _builtin_args(numeric.right, "number", 1, functions)
        if (
            left is None
            or right is None
            or _string_of_property(left[0], functions) != name
            or _string_literal(right[0]) != value
        ):
            return None
        number = number_value([value])
    return PropertyFilterPred(pred, name, op, value, number, truth)


def _builtin_args(expr: ast.Expr, name: str, arity: int, functions) -> Optional[list]:
    """The arguments of a call to builtin ``name#arity`` (not shadowed by a
    user declaration), else None."""
    if (
        isinstance(expr, ast.FunctionCall)
        and len(expr.args) == arity
        and resolve_call(expr, functions).is_builtin(name)
    ):
        return expr.args
    return None


def _string_of_property(expr: ast.Expr, functions) -> Optional[str]:
    """The property name if *expr* is ``string(property[@name eq "n"])``."""
    args = _builtin_args(expr, "string", 1, functions)
    return _property_name(args[0]) if args is not None else None


def _attr_step_name(expr: ast.Expr) -> Optional[str]:
    """The attribute name if *expr* is a bare ``@name`` step, else None.

    ``@name`` appears both as a bare step and as a one-step relative path,
    depending on the production that parsed it."""
    if isinstance(expr, ast.PathExpr):
        if expr.anchor is not None or expr.steps:
            return None
        expr = expr.first
    if (
        isinstance(expr, ast.AxisStep)
        and expr.axis == "attribute"
        and expr.test.kind == "name"
        and not expr.predicates
    ):
        return expr.test.name
    return None


def _string_literal(expr: ast.Expr) -> Optional[str]:
    """The string if *expr* is a string literal, else None."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def _string_literals(expr: ast.Expr) -> Optional[List[str]]:
    """The literal strings if *expr* is one or a sequence of them."""
    if isinstance(expr, ast.Literal):
        value = _string_literal(expr)
        return [value] if value is not None else None
    if isinstance(expr, ast.EmptySequence):
        return []
    if isinstance(expr, ast.SequenceExpr):
        values = [_string_literal(item) for item in expr.items]
        return None if None in values else values
    return None


def _value_op(expr: ast.Expr) -> Optional[str]:
    """The operator if *expr* is a value comparison, else None."""
    if isinstance(expr, ast.Comparison) and expr.style == "value":
        return expr.op
    return None


def _property_name(expr: ast.Expr) -> Optional[str]:
    """The name if *expr* is exactly ``property[@name eq "name"]``."""
    if isinstance(expr, ast.PathExpr) and expr.anchor is None and not expr.steps:
        return _property_step_name(expr.first)
    return None


def _property_step_name(step: ast.Expr) -> Optional[str]:
    """The name if *step* is the axis step ``property[@name eq "name"]``."""
    if not (
        isinstance(step, ast.AxisStep)
        and step.axis == "child"
        and step.test.kind == "name"
        and step.test.name == "property"
        and len(step.predicates) == 1
    ):
        return None
    pred = step.predicates[0]
    if _value_op(pred) == "eq" and _attr_step_name(pred.left) == "name":
        return _string_literal(pred.right)
    return None


def _is_type_test(expr: ast.Expr, name: str, op: str, types: Tuple[str, ...]) -> bool:
    """True if *expr* is ``property[@name eq "name"]/@type op types``: a
    general ``=`` against a sequence of string literals, or a value ``eq``
    against one."""
    if not isinstance(expr, ast.Comparison) or expr.op != op:
        return False
    path = expr.left
    if not (
        isinstance(path, ast.PathExpr)
        and path.anchor is None
        and len(path.steps) == 1
        and _property_step_name(path.first) == name
    ):
        return False
    separator, step = path.steps[0]
    if separator != "/" or _attr_step_name(step) != "type":
        return False
    if op == "eq":
        return expr.style == "value" and (_string_literal(expr.right),) == types
    literals = _string_literals(expr.right)
    return expr.style == "general" and literals is not None and tuple(literals) == types


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


# -- the fast call: the closure compiler's and the algebra executor's -------


def call_user_function(
    expr: ast.FunctionCall,
    declaration: ast.FunctionDecl,
    args: Sequence,
    body: Callable[[], Callable[[DynamicContext], Sequence]],
    check_types: bool,
    ctx: DynamicContext,
) -> Sequence:
    """Enter one user-function call, as the treewalk's
    ``_call_user_function`` does.

    Raises FOER0000 past ``max_recursion_depth`` and checks the deadline;
    then runs *args* (the arguments' callables on the caller's *ctx*) in
    order, binds them in ``ctx.function_scope`` and runs the body there.
    *body* gives the body's callable when the call runs, so a recursive
    function may call a body not yet compiled.  With *check_types*, an
    argument or the result that does not match its declared type raises
    XPTY0004 at *expr*.  *ctx* comes last, so the compiler's call thunk
    is a ``partial`` of the rest.
    """
    if ctx.depth >= ctx.config.max_recursion_depth:
        raise _error(
            expr,
            ctx,
            f"recursion depth limit exceeded calling {declaration.name}()",
            "FOER0000",
        )
    ctx.check_deadline()
    frame: Dict[str, Sequence] = {}
    for param, arg in zip(declaration.params, args):
        value = arg(ctx)
        declared_type = param.declared_type
        if check_types and declared_type is not None and not declared_type.matches(value):
            raise _error(
                expr,
                ctx,
                f"argument ${param.name} of {declaration.name}() does not match "
                f"declared type {declared_type!r}",
                "XPTY0004",
            )
        frame[param.name] = value
    result = body()(ctx.function_scope(frame))
    return_type = declaration.return_type
    if check_types and return_type is not None and not return_type.matches(result):
        raise _error(
            expr,
            ctx,
            f"result of {declaration.name}() does not match declared type {return_type!r}",
            "XPTY0004",
        )
    return result


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
        #: the program's one closure memo: expression id -> its closure.
        self._thunks: Dict[int, Thunk] = {}
        self._lock = threading.Lock()

    def thunk(self, expr: ast.Expr) -> Thunk:
        """The closure of *expr*, compiled once, on first use, under a lock
        held only while compiling.  *expr* is a node of the module, so its
        id is stable; a function body compiles here on its first call, so
        recursion needs no ordering and a fallback that calls no function
        compiles none."""
        thunk = self._thunks.get(id(expr))
        if thunk is None:
            with self._lock:
                thunk = self._thunks.get(id(expr))
                if thunk is None:
                    thunk = self._thunks[id(expr)] = self.compile(expr)
        return thunk

    def compile(self, expr: ast.Expr) -> Thunk:
        method = _COMPILE.get(type(expr))
        if method is None:
            # a cold form runs on the treewalk, which also raises for a
            # form no evaluator knows.
            return lambda ctx: evaluate(expr, ctx)
        return method(self, expr)

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
        """A comparison's closure; a general or value comparison's also
        carries its effective boolean value as ``ebv``, which skips building
        a singleton list only to take its EBV again."""
        left_thunk = self.compile(expr.left)
        right_thunk = self.compile(expr.right)
        op = expr.op
        if expr.style == "general":

            def test(ctx: DynamicContext) -> bool:
                try:
                    return general_compare(op, left_thunk(ctx), right_thunk(ctx))
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            def run(ctx: DynamicContext) -> Sequence:
                left = left_thunk(ctx)
                right = right_thunk(ctx)
                try:
                    return [general_compare(op, left, right)]
                except ComparisonTypeError as exc:
                    raise _error(expr, ctx, str(exc), "XPTY0004") from exc

            run.ebv = test
            return run
        if expr.style == "value":
            fast_eq = op in ("eq", "ne")
            keep_equal = op == "eq"

            def test(ctx: DynamicContext) -> bool:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return False  # the comparison's [] has EBV false
                if fast_eq and len(left_atoms) == 1 and len(right_atoms) == 1:
                    # Untyped-vs-untyped and untyped-vs-string eq/ne reduce
                    # to plain string equality under the promotion rules.
                    left = left_atoms[0]
                    right = right_atoms[0]
                    lv = left.value if type(left) is UntypedAtomic else left
                    rv = right.value if type(right) is UntypedAtomic else right
                    if type(lv) is str and type(rv) is str:
                        return (lv == rv) == keep_equal
                return _value_compare(expr, left_atoms, right_atoms, ctx)

            def run(ctx: DynamicContext) -> Sequence:
                left_atoms = atomize(left_thunk(ctx))
                right_atoms = atomize(right_thunk(ctx))
                if not left_atoms or not right_atoms:
                    return []
                return [_value_compare(expr, left_atoms, right_atoms, ctx)]

            run.ebv = test
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

    def _path_step(self, expr: ast.AxisStep, separator: str = "/") -> PathStep:
        return PathStep(
            expr, separator, classify_predicates(expr.predicates, self.functions, self.effects)
        )

    def _axis_step(self, expr: ast.AxisStep) -> Thunk:
        step = self._path_step(expr)
        closure = self.thunk
        return lambda ctx: run_path_step(step, closure, None, [ctx.item], True, True, ctx)[0]

    def _filter(self, expr: ast.FilterExpr) -> Thunk:
        base_thunk = self.compile(expr.base)
        predicates = classify_predicates(expr.predicates, self.functions, self.effects)
        closure = self.thunk
        return lambda ctx: run_predicates(predicates, closure, None, base_thunk(ctx), ctx)

    def _path(self, expr: ast.PathExpr) -> Thunk:
        lead_expr, pairs = path_pairs(expr)
        lead = None if lead_expr is None else self.compile(lead_expr)
        steps = tuple(
            self._path_step(step, separator)
            if isinstance(step, ast.AxisStep)
            else (separator == "//", self.compile(step))
            for separator, step in pairs
        )
        closure = self.thunk

        def run(ctx: DynamicContext) -> Sequence:
            start = start_path(expr, None if lead is None else lead(ctx), ctx)
            return run_steps(steps, closure, None, start, ctx)[0]

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
            # The program is compiled against one config (the compile cache
            # is keyed on it), so whether types are checked is taken here.
            declaration = callee.declaration
            return partial(
                call_user_function,
                expr,
                declaration,
                tuple(self.compile(arg) for arg in expr.args),
                partial(self.thunk, declaration.body),
                self.config.type_check_calls,
            )
        if callee.kind != "builtin":
            # constructor functions are cold: the treewalk casts; it also
            # raises XPST0017 for an unknown call when it is evaluated.
            return lambda ctx: evaluate(expr, ctx)
        builtin = callee.builtin
        arg_thunks = tuple(self.compile(arg) for arg in expr.args)

        def run(ctx: DynamicContext) -> Sequence:
            args = [thunk(ctx) for thunk in arg_thunks]
            return builtin(ctx, args, expr)

        if callee.name in BOOLEAN_BUILTINS:
            run.ebv = lambda ctx: builtin(
                ctx, [thunk(ctx) for thunk in arg_thunks], expr
            )[0]
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
