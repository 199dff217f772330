"""Whole-program type & path inference for the XQuery subset.

The paper used XQuery "in the untyped mode, avoiding the type system
entirely" — and paid for it at runtime with silently empty paths and
``Index out of bounds, without any information of where``.  This module
is the typed mode the 2004 stack never offered: an abstract
interpretation that infers, for every expression, an XDM item type
(:class:`AbstractItem`) and an occurrence interval (:class:`~.cardinality.Card`,
rendered as ``empty | 1 | ? | + | *``), optionally evaluated against a
:class:`~.schema.DocumentSchema` describing what the queried document can
contain.

One class, :class:`TypeAnalyzer`, infers every fact a variable binding
carries: the occurrence, the item type, and whether the expression may
construct *attribute nodes* — the ingredient of the paper's E2 folding
surprises (an attribute node in element content silently becomes an
attribute of the parent, or a runtime error when it arrives too late).

Three consumers:

* the lint rules — XQL007/XQL008 (name resolution, re-homed from the old
  ``statictype`` module), XQL010 (dead path), XQL011 (statically
  ill-typed comparison/arithmetic), XQL012 (vacuous predicate);
* the algebra's explain-time estimate pass, which reads the same schema
  off the statistics catalog to tighten estimates and mark dead paths;
* the fuzz harness's type-soundness oracle, which asserts every runtime
  value the differential engines observe inhabits its inferred type.

The soundness contract is strict: the *inferred type and occurrence* of
an expression must admit every value any engine can produce for it, for
every generated program — the fuzzer holds the analyzer to that the same
way it holds the engines to bit-identical results.  Schema facts are the
one deliberate exception: they describe exporter-produced documents, so
they surface as *findings* (a constructed ``<awb-model>`` can violate
them) and never tighten the inferred type itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .. import ast
from ..functions import resolve_call
from ...xdm import atomic_type_name, is_atomic, is_node
from ...xdm.types import ATOMIC_HIERARCHY, ItemType, atomic_type_derives_from
from .cardinality import (
    Binder,
    Binding,
    Card,
    EMPTY,
    Env,
    ONE,
    OPT,
    PLUS,
    STAR,
    concat,
    from_sequence_type,
    iter_scoped,
    join as card_join,
    module_environments,
    module_units,
    multiply,
    positional_index,
    range_card,
    scopes,
)
from .schema import DocumentSchema

__all__ = [
    "AbstractItem",
    "Inferred",
    "ModuleTypeAnalysis",
    "StaticIssue",
    "TypeAnalyzer",
    "TypeFinding",
    "annotation_pressure",
    "call_graph",
    "check_module",
    "check_sequence",
    "infer_body_type",
    "occurrence_indicator",
]


# -- the item-type lattice ----------------------------------------------------

_NODE_KINDS = frozenset(
    {
        "node",
        "document",
        "element",
        "attribute",
        "text",
        "comment",
        "processing-instruction",
    }
)

_NUMERIC_ATOMICS = frozenset(
    {
        "xs:integer",
        "xs:decimal",
        "xs:double",
        "xs:nonNegativeInteger",
        "xs:positiveInteger",
    }
)


@dataclass(frozen=True)
class AbstractItem:
    """An abstract XDM item type.

    ``kind`` is ``"item"`` (anything), ``"atomic"`` (with an optional
    ``xs:`` type name; ``None`` = any atomic), or a node kind.  Elements
    and attributes may carry a statically known ``name``; elements may
    additionally carry ``schema_element``, the schema vocabulary entry
    they are *anchored* to — used only to drive findings, never to
    narrow :meth:`matches` (constructed documents can violate schemas).
    """

    kind: str = "item"
    atomic: Optional[str] = None
    name: Optional[str] = None
    schema_element: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "item":
            return "item()"
        if self.kind == "atomic":
            return self.atomic or "xs:anyAtomicType"
        if self.kind in ("element", "attribute"):
            return f"{self.kind}({self.name or '*'})"
        if self.kind == "node":
            return "node()"
        return f"{self.kind}()"

    def matches(self, value: object) -> bool:
        """True if the runtime *value* inhabits this item type."""
        if self.kind == "item":
            return True
        if self.kind == "atomic":
            if not is_atomic(value):
                return False
            if self.atomic is None:
                return True
            return atomic_type_derives_from(atomic_type_name(value), self.atomic)
        if not is_node(value):
            return False
        if self.kind == "node":
            return True
        if value.kind != self.kind:
            return False
        if self.name is not None and getattr(value, "name", None) != self.name:
            return False
        return True


ANY_ITEM = AbstractItem()
ANY_NODE = AbstractItem(kind="node")
ANY_ATOMIC = AbstractItem(kind="atomic")
BOOLEAN = AbstractItem(kind="atomic", atomic="xs:boolean")
INTEGER = AbstractItem(kind="atomic", atomic="xs:integer")
STRING = AbstractItem(kind="atomic", atomic="xs:string")
DOUBLE = AbstractItem(kind="atomic", atomic="xs:double")


def _common_atomic(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Nearest common supertype in the atomic hierarchy (None = any)."""
    if a is None or b is None:
        return None
    ancestors = set()
    current: Optional[str] = a
    while current is not None:
        ancestors.add(current)
        current = ATOMIC_HIERARCHY.get(current)
    current = b
    while current is not None:
        if current in ancestors:
            return None if current == "xs:anyAtomicType" else current
        current = ATOMIC_HIERARCHY.get(current)
    return None


def join_items(a: AbstractItem, b: AbstractItem) -> AbstractItem:
    """Least upper bound of two item types."""
    if a == b:
        return a
    if a.kind == b.kind:
        if a.kind == "atomic":
            return AbstractItem(kind="atomic", atomic=_common_atomic(a.atomic, b.atomic))
        name = a.name if a.name == b.name else None
        schema = a.schema_element if a.schema_element == b.schema_element else None
        return AbstractItem(kind=a.kind, name=name, schema_element=schema)
    if a.kind in _NODE_KINDS and b.kind in _NODE_KINDS:
        return ANY_NODE
    return ANY_ITEM


def _from_item_type(item_type: Optional[ItemType]) -> AbstractItem:
    """Translate a declared :class:`~repro.xdm.ItemType` into the lattice."""
    if item_type is None:
        return ANY_ITEM
    if item_type.category == ItemType.ITEM:
        return ANY_ITEM
    if item_type.category == ItemType.ATOMIC:
        name = item_type.name if item_type.name in ATOMIC_HIERARCHY else None
        return AbstractItem(kind="atomic", atomic=name)
    kind = item_type.node_kind or "node"
    if kind == "document-node":
        kind = "document"
    if kind not in _NODE_KINDS:
        kind = "node"
    return AbstractItem(kind=kind, name=item_type.name)


# -- inferred sequence types --------------------------------------------------


def occurrence_indicator(card: Card) -> str:
    """Render a cardinality interval as the paper-facing occurrence."""
    if card.hi == 0:
        return "empty"
    if card.lo >= 1 and card.hi == 1:
        return "1"
    if card.hi == 1:
        return "?"
    if card.lo >= 1:
        return "+"
    return "*"


@dataclass(frozen=True)
class Inferred:
    """The static type of one expression: item type x occurrence."""

    item: AbstractItem
    card: Card

    def describe(self) -> str:
        occurrence = occurrence_indicator(self.card)
        if occurrence == "empty":
            return "empty-sequence()"
        if occurrence == "1":
            return self.item.describe()
        return f"{self.item.describe()}{occurrence}"


def _describe_value(value: object) -> str:
    if is_node(value):
        name = getattr(value, "name", None)
        return f"{value.kind}({name})" if name else f"{value.kind}()"
    if is_atomic(value):
        return f"{atomic_type_name(value)} {str(value)[:40]!r}"
    return type(value).__name__


def check_sequence(inferred: Inferred, items: List[object]) -> Optional[str]:
    """Why a runtime sequence does *not* inhabit *inferred* (None = it does)."""
    n = len(items)
    if n < inferred.card.lo:
        return (
            f"runtime sequence has {n} item(s), below the inferred minimum "
            f"{inferred.card.lo} of {inferred.describe()}"
        )
    if inferred.card.hi is not None and n > inferred.card.hi:
        return (
            f"runtime sequence has {n} item(s), above the inferred maximum "
            f"{inferred.card.hi} of {inferred.describe()}"
        )
    for index, value in enumerate(items):
        if not inferred.item.matches(value):
            return (
                f"item {index + 1} is {_describe_value(value)}, which does not "
                f"inhabit the inferred type {inferred.describe()}"
            )
    return None


# -- findings -----------------------------------------------------------------


@dataclass
class StaticIssue:
    """One name-resolution problem (the old ``statictype`` currency)."""

    code: str
    message: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"[{self.code}] {self.message} (line {self.line}, column {self.column})"


@dataclass(frozen=True)
class TypeFinding:
    """One schema/type finding destined for an XQL010-012 diagnostic."""

    code: str
    message: str
    line: int
    column: int
    severity: str = "warning"
    spec_code: str = ""


# -- builtin result types -----------------------------------------------------

#: builtins that return exactly one item regardless of input.
_ALWAYS_ONE = {
    "true", "false", "not", "boolean", "count", "empty", "exists",
    "position", "last", "deep-equal", "string", "string-length", "concat",
    "string-join", "normalize-space", "upper-case", "lower-case",
    "translate", "contains", "starts-with", "ends-with", "matches",
    "replace", "codepoints-to-string", "number", "sum", "name",
    "local-name", "exactly-one", "doc", "doc-available", "substring",
    "substring-before", "substring-after",
}

#: builtins that return at most one item.
_AT_MOST_ONE = {
    "abs", "floor", "ceiling", "round", "avg", "min", "max", "node-name",
    "root", "zero-or-one",
}

_CALL_BOOLEAN = {
    "true", "false", "not", "boolean", "empty", "exists", "deep-equal",
    "contains", "starts-with", "ends-with", "matches", "doc-available",
}
_CALL_INTEGER = {"count", "position", "last", "string-length", "string-to-codepoints"}
_CALL_STRING = {
    "string", "concat", "string-join", "normalize-space", "upper-case",
    "lower-case", "translate", "replace", "codepoints-to-string", "substring",
    "substring-before", "substring-after", "name", "local-name",
}
_CALL_DOUBLE = {"number"}
_CALL_ATOMIC = {"data", "distinct-values", "sum", "avg", "min", "max",
                "abs", "floor", "ceiling", "round"}
#: builtins that return (items drawn from) their first argument.
_CALL_PASSTHROUGH = {"trace", "exactly-one", "zero-or-one", "one-or-more",
                     "reverse", "subsequence", "insert-before", "remove"}


class TypeAnalyzer:
    """The static analyzer: occurrence, attribute and item-type inference.

    Infers bottom-up, given an environment, how many items an expression
    can produce (:meth:`card`), whether it can construct attribute nodes
    (:meth:`may_construct_attribute`) and its item type (:meth:`item`).
    Every binder's scope comes from :func:`~.cardinality.scopes`, which
    builds each :class:`Binding` through the hooks below.  The ``schema``,
    when present, only ever produces findings (via ``_path_info``'s sink)
    — see the module docstring for why.
    """

    def __init__(self, module: ast.Module, schema: Optional[DocumentSchema] = None):
        self.module = module
        self.schema = schema
        self.functions = ast.function_table(module)

    def infer(self, expr, env: Env) -> Inferred:
        if isinstance(expr, ast.PathExpr):
            item, card = self._path_info(expr, env, None)
            return Inferred(item, card)
        return Inferred(self.item(expr, env), self.card(expr, env))

    def _returns(self, expr, env: Env):
        """``(branch, env)`` for each child whose value *expr* returns: a
        FLWOR's result, every typeswitch branch, a try body and its handler."""
        for child, scope in scopes(expr, env, self):
            if isinstance(child, Binder):
                continue
            if isinstance(expr, ast.FLWOR) and child is not expr.result:
                continue
            if isinstance(expr, ast.Typeswitch) and child is expr.operand:
                continue
            yield child, scope

    # -- cardinality -------------------------------------------------------

    def card(self, expr, env: Env) -> Card:
        if expr is None:
            return EMPTY
        if isinstance(expr, (ast.Literal, ast.ContextItem)):
            return ONE
        if isinstance(expr, ast.EmptySequence):
            return EMPTY
        if isinstance(expr, ast.VarRef):
            binding = env.get(expr.name)
            return binding.card if binding is not None else STAR
        if isinstance(expr, ast.SequenceExpr):
            total = EMPTY
            for item in expr.items:
                total = concat(total, self.card(item, env))
            return total
        if isinstance(expr, ast.RangeExpr):
            return range_card(expr)
        if isinstance(expr, (ast.Arithmetic, ast.Unary)):
            return self._empty_propagating(expr, env)
        if isinstance(expr, ast.Comparison):
            if expr.style == "general":
                return ONE
            return self._empty_propagating(expr, env)
        if isinstance(expr, (ast.BooleanOp, ast.Quantified, ast.InstanceOf,
                             ast.CastableAs)):
            return ONE
        if isinstance(expr, ast.CastAs):
            return OPT if expr.allow_empty else ONE
        if isinstance(expr, ast.TreatAs):
            return from_sequence_type(expr.sequence_type)
        if isinstance(expr, ast.SetOp):
            return STAR
        if isinstance(expr, ast.AxisStep):
            return STAR
        if isinstance(expr, ast.FilterExpr):
            return self._filter_card(expr, env)
        if isinstance(expr, ast.PathExpr):
            if expr.anchor is None and not expr.steps and expr.first is not None:
                return self.card(expr.first, env)
            return STAR
        if isinstance(expr, ast.IfExpr):
            return card_join(
                self.card(expr.then_branch, env),
                self.card(expr.else_branch, env) if expr.else_branch else EMPTY,
            )
        if isinstance(expr, (ast.Typeswitch, ast.TryCatch)):
            result: Optional[Card] = None
            for branch, scope in self._returns(expr, env):
                card = self.card(branch, scope)
                result = card if result is None else card_join(result, card)
            return result
        if isinstance(expr, ast.FLWOR):
            return self._flwor_card(expr, env)
        if isinstance(expr, ast.FunctionCall):
            return self._call_card(expr, env)
        if isinstance(expr, ast.ComputedText):
            # ``text { () }`` is the one constructor that maps empty content
            # to the empty sequence, not an empty node (fuzz-found).
            if expr.content is None:
                return EMPTY
            content = self.card(expr.content, env)
            return ONE if content.lo >= 1 else OPT
        if isinstance(expr, (ast.DirectElement, ast.DirectComment, ast.DirectPI,
                             ast.ComputedElement, ast.ComputedAttribute,
                             ast.ComputedComment, ast.ComputedDocument)):
            return ONE
        return STAR

    def _empty_propagating(self, expr, env: Env) -> Card:
        """Ops that yield one item unless an operand is the empty sequence."""
        operands = (
            [expr.operand]
            if isinstance(expr, ast.Unary)
            else [expr.left, expr.right]
        )
        lo = 1
        for operand in operands:
            if self.card(operand, env).can_be_empty:
                lo = 0
        return Card(lo, 1)

    def _filter_card(self, expr: ast.FilterExpr, env: Env) -> Card:
        base = self.card(expr.base, env)
        for predicate in expr.predicates:
            if positional_index(predicate, self.functions) is not None:
                base = Card(0, 0 if base.hi == 0 else 1)
            else:
                base = Card(0, base.hi)
        return base

    def _flwor_card(self, expr: ast.FLWOR, env: Env) -> Card:
        """Each for source multiplies the tuples, each tuple returns the
        result once, and a where clause may drop any tuple."""
        factors = {id(expr.result)} | {
            id(clause.source)
            for clause in expr.clauses
            if isinstance(clause, ast.ForClause)
        }
        total = ONE
        for child, scope in scopes(expr, env, self):
            if id(child) in factors:
                total = multiply(total, self.card(child, scope))
        if any(isinstance(clause, ast.WhereClause) for clause in expr.clauses):
            return Card(0, total.hi)
        return total

    def _call_card(self, expr: ast.FunctionCall, env: Env) -> Card:
        """The runtime's resolution (:func:`resolve_call`), then the
        builtin result tables, which apply only to a call that resolves to
        a builtin: a declared user function shadows a same-named builtin
        at *any* call spelling, and an unknown call reads ``*``.  ``xs:``
        constructors map empty to empty, so their result is optional
        unless the argument is provably non-empty.
        """
        callee = resolve_call(expr, self.functions)
        if callee.kind == "constructor":
            if len(expr.args) == 1:
                argument = self.card(expr.args[0], env)
                return ONE if argument.lo >= 1 else OPT
            return ONE  # arity error at runtime; card is for success paths
        if callee.kind == "user":
            declared = callee.declaration.return_type
            return STAR if declared is None else from_sequence_type(declared)
        name = callee.name if callee.kind == "builtin" else None
        if name == "trace":
            # fn:trace returns its last argument verbatim.
            return self.card(expr.args[-1], env)
        if name in _ALWAYS_ONE:
            return ONE
        if name in _AT_MOST_ONE:
            return OPT
        if name == "one-or-more":
            return PLUS
        return STAR

    # -- attribute-node inference (for the E2 rules) -----------------------

    def may_construct_attribute(self, expr, env: Env) -> bool:
        """True if *expr* can evaluate to one or more attribute nodes.

        Deliberately narrow — only shapes the analyzer can prove, so the
        E2 rule never cries wolf on ordinary element content.
        """
        if isinstance(expr, ast.ComputedAttribute):
            return True
        if isinstance(expr, ast.VarRef):
            binding = env.get(expr.name)
            return binding is not None and binding.may_be_attribute
        if isinstance(expr, ast.SequenceExpr):
            return any(self.may_construct_attribute(item, env) for item in expr.items)
        if isinstance(expr, ast.IfExpr):
            return self.may_construct_attribute(
                expr.then_branch, env
            ) or self.may_construct_attribute(expr.else_branch, env)
        if isinstance(expr, ast.FLWOR):
            return any(
                self.may_construct_attribute(result, scope)
                for result, scope in self._returns(expr, env)
            )
        if isinstance(expr, ast.PathExpr):
            last = expr.steps[-1][1] if expr.steps else expr.first
            return isinstance(last, ast.AxisStep) and last.axis == "attribute"
        return False

    def static_attribute_name(self, expr, env: Env) -> Optional[str]:
        """The attribute's name, when *expr* is provably one named attribute."""
        if isinstance(expr, ast.ComputedAttribute) and expr.name is not None:
            return expr.name
        if isinstance(expr, ast.VarRef):
            binding = env.get(expr.name)
            return binding.attribute_name if binding is not None else None
        return None

    # -- item types --------------------------------------------------------

    def item(self, expr, env: Env) -> AbstractItem:
        if expr is None:
            return ANY_ITEM
        if isinstance(expr, ast.Literal):
            return AbstractItem(kind="atomic", atomic=atomic_type_name(expr.value))
        if isinstance(expr, ast.VarRef):
            binding = env.get(expr.name)
            if binding is not None and binding.item is not None:
                return binding.item
            return ANY_ITEM
        if isinstance(expr, ast.SequenceExpr):
            result: Optional[AbstractItem] = None
            for part in expr.items:
                part_item = self.item(part, env)
                result = part_item if result is None else join_items(result, part_item)
            return result or ANY_ITEM
        if isinstance(expr, ast.RangeExpr):
            return INTEGER
        if isinstance(expr, (ast.Arithmetic, ast.Unary)):
            return self._arithmetic_item(expr, env)
        if isinstance(expr, (ast.Comparison, ast.BooleanOp, ast.Quantified,
                             ast.InstanceOf, ast.CastableAs)):
            return BOOLEAN
        if isinstance(expr, ast.CastAs):
            name = expr.type_name if expr.type_name in ATOMIC_HIERARCHY else None
            return AbstractItem(kind="atomic", atomic=name)
        if isinstance(expr, ast.TreatAs):
            return _from_item_type(
                expr.sequence_type.item_type if expr.sequence_type else None
            )
        if isinstance(expr, ast.SetOp):
            left = self.item(expr.left, env)
            right = self.item(expr.right, env)
            joined = join_items(left, right)
            return joined if joined.kind in _NODE_KINDS else ANY_NODE
        if isinstance(expr, ast.PathExpr):
            item, _ = self._path_info(expr, env, None)
            return item
        if isinstance(expr, ast.AxisStep):
            item, _ = self._step_info(ANY_ITEM, STAR, "/", expr, env, None)
            return item
        if isinstance(expr, ast.FilterExpr):
            return self.item(expr.base, env)
        if isinstance(expr, ast.IfExpr):
            then_item = self.item(expr.then_branch, env)
            if expr.else_branch is None:
                return then_item
            return join_items(then_item, self.item(expr.else_branch, env))
        if isinstance(expr, (ast.Typeswitch, ast.TryCatch, ast.FLWOR)):
            result = None
            for branch, scope in self._returns(expr, env):
                branch_item = self.item(branch, scope)
                result = branch_item if result is None else join_items(result, branch_item)
            return result
        if isinstance(expr, ast.FunctionCall):
            return self._call_item(expr, env)
        if isinstance(expr, (ast.DirectElement, ast.ComputedElement)):
            return AbstractItem(kind="element", name=expr.name)
        if isinstance(expr, ast.ComputedAttribute):
            return AbstractItem(kind="attribute", name=expr.name)
        if isinstance(expr, (ast.DirectComment, ast.ComputedComment)):
            return AbstractItem(kind="comment")
        if isinstance(expr, ast.DirectPI):
            return AbstractItem(kind="processing-instruction")
        if isinstance(expr, ast.ComputedText):
            return AbstractItem(kind="text")
        if isinstance(expr, ast.ComputedDocument):
            return AbstractItem(kind="document")
        return ANY_ITEM

    def _arithmetic_item(self, expr, env: Env) -> AbstractItem:
        operands = (
            [expr.operand] if isinstance(expr, ast.Unary) else [expr.left, expr.right]
        )
        op = expr.op
        all_integer = op != "div"
        for operand in operands:
            operand_item = self.item(operand, env)
            if not (operand_item.kind == "atomic" and operand_item.atomic == "xs:integer"):
                all_integer = False
        return INTEGER if all_integer else ANY_ATOMIC

    def _call_item(self, expr: ast.FunctionCall, env: Env) -> AbstractItem:
        callee = resolve_call(expr, self.functions)
        if callee.kind == "constructor":
            atomic = callee.name if callee.name in ATOMIC_HIERARCHY else None
            return AbstractItem(kind="atomic", atomic=atomic)
        if callee.kind == "user":
            declared = callee.declaration.return_type
            return ANY_ITEM if declared is None else _from_item_type(declared.item_type)
        name = callee.name if callee.kind == "builtin" else None
        if name in _CALL_BOOLEAN:
            return BOOLEAN
        if name in _CALL_INTEGER:
            return INTEGER
        if name in _CALL_STRING:
            return STRING
        if name in _CALL_DOUBLE:
            return DOUBLE
        if name in _CALL_ATOMIC:
            return ANY_ATOMIC
        if name == "trace":
            # fn:trace returns its *last* argument (the value; earlier
            # arguments are labels) — a fuzz-found soundness bug when this
            # used args[0] like the other passthroughs.
            return self.item(expr.args[-1], env)
        if name == "insert-before":
            # the result interleaves the target (args[0]) and the inserted
            # items (args[2]); drawing from args[0] alone was unsound.
            return join_items(
                self.item(expr.args[0], env), self.item(expr.args[2], env)
            )
        if name in _CALL_PASSTHROUGH:
            return self.item(expr.args[0], env)
        if name == "root":
            return ANY_NODE
        if name == "doc":
            return AbstractItem(kind="document")
        return ANY_ITEM

    # -- binding hooks: one per binder shape, called by ``scopes`` ---------

    def binding_of(self, expr, env: Env) -> Binding:
        """The :class:`Binding` a ``let``-style binding of *expr* produces."""
        return Binding(
            card=self.card(expr, env),
            may_be_attribute=self.may_construct_attribute(expr, env),
            attribute_name=self.static_attribute_name(expr, env),
            item=self.item(expr, env),
        )

    def for_binding(self, source, env: Env) -> Binding:
        """Binding of a ``for $x in source`` variable."""
        return Binding(
            card=ONE,
            may_be_attribute=self.may_construct_attribute(source, env),
            item=self.item(source, env),
        )

    def quantifier_binding(self, source, env: Env) -> Binding:
        """Binding of a ``some/every $x in source`` variable."""
        return Binding(card=ONE, item=self.item(source, env))

    def position_binding(self) -> Binding:
        """Binding of an ``at $pos`` positional variable."""
        return Binding(card=ONE, item=INTEGER)

    def case_binding(self, sequence_type) -> Binding:
        """Binding of a typeswitch ``case $x as T`` variable."""
        return Binding(
            card=from_sequence_type(sequence_type),
            item=_from_item_type(sequence_type.item_type if sequence_type else None),
        )

    def default_case_binding(self, operand, env: Env) -> Binding:
        """Binding of a typeswitch ``default $x`` variable."""
        return Binding(card=STAR)

    def catch_binding(self) -> Binding:
        """Binding of a ``try/catch $err`` variable (the ``<error>`` element)."""
        return Binding(card=ONE, item=AbstractItem(kind="element", name="error"))

    def param_binding(self, param: ast.Param) -> Binding:
        """Binding of a function parameter, from its declared type."""
        declared = param.declared_type
        return Binding(
            card=from_sequence_type(declared),
            item=_from_item_type(declared.item_type if declared else None),
        )

    def global_binding(self, declaration: ast.VariableDecl, env: Env) -> Binding:
        """Binding of a global ``declare variable``."""
        declared = declaration.declared_type
        if declared is not None:
            return Binding(
                card=from_sequence_type(declared),
                item=_from_item_type(declared.item_type),
            )
        if declaration.value is not None:
            return self.binding_of(declaration.value, env)
        return Binding(card=STAR)

    # -- paths against the schema ------------------------------------------

    def _path_info(self, expr: ast.PathExpr, env: Env, sink) -> Tuple[AbstractItem, Card]:
        if expr.anchor is not None:
            item: AbstractItem = AbstractItem(kind="document")
            card = ONE
        elif expr.first is not None:
            item = self.item(expr.first, env)
            card = self.card(expr.first, env)
        else:
            item = ANY_ITEM
            card = ONE
        descended = expr.anchor == "//"
        for separator, step in expr.steps:
            if descended:
                separator = "//"
                descended = False
            item, card = self._step_info(item, card, separator, step, env, sink)
        return item, card

    def _step_info(
        self,
        base_item: AbstractItem,
        base_card: Card,
        separator: str,
        step,
        env: Env,
        sink,
    ) -> Tuple[AbstractItem, Card]:
        if not isinstance(step, ast.AxisStep):
            return self.item(step, env), STAR
        schema = self.schema
        anchored = base_item.schema_element if base_item.kind == "element" else None
        test = step.test
        item = ANY_NODE
        card = STAR
        if step.axis == "attribute":
            name = test.name if test.kind == "name" else None
            item = AbstractItem(kind="attribute", name=name)
            if separator == "//":
                # ``//@x`` reaches the attributes of *every* descendant —
                # one per element at most, but unboundedly many elements
                # (a fuzz-found soundness bug: Card(0, base.hi) undercounted).
                card = EMPTY if base_card.hi == 0 else Card(0, STAR.hi)
            else:
                card = Card(0, base_card.hi)
            if (
                schema is not None
                and anchored
                and name is not None
                and separator != "//"
            ):
                if not schema.attribute_allowed(anchored, name):
                    self._report(
                        sink,
                        "XQL010",
                        step,
                        f"dead path: <{anchored}> never carries @{name} in the "
                        f"{schema.name} schema",
                    )
                elif schema.attribute_required(anchored, name):
                    card = Card(base_card.lo, base_card.hi)
        elif test.kind == "name":
            name = test.name
            sch: Optional[str] = None
            if separator == "//" or step.axis in ("descendant", "descendant-or-self"):
                if schema is not None and anchored:
                    closure = schema.descendants_closed(anchored)
                    if closure is not None and name not in closure:
                        self._report(
                            sink,
                            "XQL010",
                            step,
                            f"dead path: no <{name}> can occur anywhere below "
                            f"<{anchored}> in the {schema.name} schema",
                        )
            elif step.axis == "child":
                if schema is not None:
                    if anchored:
                        decl = schema.element(anchored)
                        if decl is not None and not decl.open_content:
                            if name in decl.children:
                                sch = name
                            else:
                                self._report(
                                    sink,
                                    "XQL010",
                                    step,
                                    f"dead path: <{name}> can never be a child of "
                                    f"<{anchored}> in the {schema.name} schema",
                                )
                    elif name == schema.root and base_item.kind in (
                        "item",
                        "node",
                        "document",
                    ):
                        # by-name anchoring: a step selecting the export root
                        # element pins the rest of the path to the schema.
                        sch = name
            item = AbstractItem(kind="element", name=name, schema_element=sch)
        elif test.kind == "wildcard":
            kind = "attribute" if step.axis == "attribute" else "element"
            item = AbstractItem(kind=kind)
        else:
            kind_map = {
                "node": "node",
                "text": "text",
                "element": "element",
                "attribute": "attribute",
                "comment": "comment",
                "processing-instruction": "processing-instruction",
                "document-node": "document",
                "document": "document",
            }
            item = AbstractItem(kind=kind_map.get(test.kind, "node"))
            if step.axis == "self" and test.kind == "node":
                item = base_item if base_item.kind in _NODE_KINDS else ANY_NODE
        for predicate in step.predicates:
            self._check_predicate(item.schema_element, predicate, sink)
            if positional_index(predicate, self.functions) is not None:
                card = Card(0, 0 if card.hi == 0 else 1)
            else:
                card = Card(0, card.hi)
        return item, card

    def _check_predicate(self, element: Optional[str], predicate, sink) -> None:
        """XQL012: predicates provably vacuous against attribute domains."""
        schema = self.schema
        if sink is None or schema is None or element is None:
            return
        attr = _bare_attribute_name(predicate)
        if attr is not None:
            if not schema.attribute_allowed(element, attr):
                self._report(
                    sink,
                    "XQL012",
                    predicate,
                    f"predicate [@{attr}] is always false: <{element}> never "
                    f"carries @{attr} in the {schema.name} schema",
                )
            elif schema.attribute_required(element, attr):
                self._report(
                    sink,
                    "XQL012",
                    predicate,
                    f"predicate [@{attr}] is always true: @{attr} is required "
                    f"on every <{element}> in the {schema.name} schema",
                    severity="info",
                )
            return
        parsed = _attr_comparison(predicate)
        if parsed is None:
            return
        attr, literals = parsed
        if not literals:
            return
        if not schema.attribute_allowed(element, attr):
            self._report(
                sink,
                "XQL012",
                predicate,
                f"predicate on @{attr} is always false: <{element}> never "
                f"carries @{attr} in the {schema.name} schema",
            )
            return
        domain = schema.attribute_domain(element, attr)
        if domain is None:
            return
        if not any(literal in domain for literal in literals):
            shown = ", ".join(repr(v) for v in literals)
            self._report(
                sink,
                "XQL012",
                predicate,
                f"predicate is always false: {shown} can never be the value of "
                f"@{attr} on <{element}> (domain: "
                f"{', '.join(sorted(domain))}; absent means string)",
            )

    @staticmethod
    def _report(sink, code: str, expr, message: str, severity: str = "warning") -> None:
        if sink is None:
            return
        spec = {"XQL010": "XPST0005", "XQL011": "XPTY0004"}.get(code, "")
        sink.append(
            TypeFinding(
                code=code,
                message=message,
                line=getattr(expr, "line", 0),
                column=getattr(expr, "column", 0),
                severity=severity,
                spec_code=spec,
            )
        )


def _unwrap_single_step(expr):
    """The lone AxisStep of ``@a``-shaped expressions, else None."""
    if isinstance(expr, ast.PathExpr):
        if expr.anchor is None and not expr.steps:
            return _unwrap_single_step(expr.first)
        if expr.anchor is None and expr.first is None and len(expr.steps) == 1:
            return _unwrap_single_step(expr.steps[0][1])
        return None
    if isinstance(expr, ast.AxisStep):
        return expr
    return None


def _bare_attribute_name(expr) -> Optional[str]:
    step = _unwrap_single_step(expr)
    if (
        isinstance(step, ast.AxisStep)
        and step.axis == "attribute"
        and step.test.kind == "name"
        and not step.predicates
    ):
        return step.test.name
    return None


def _literal_strings(expr) -> Optional[List[str]]:
    """The literal string values of ``"a"`` or ``("a", "b")``, else None."""
    if isinstance(expr, ast.Literal):
        return [expr.value] if isinstance(expr.value, str) else None
    if isinstance(expr, ast.SequenceExpr):
        collected: List[str] = []
        for item in expr.items:
            if isinstance(item, ast.Literal) and isinstance(item.value, str):
                collected.append(item.value)
            else:
                return None
        return collected
    return None


def _attr_comparison(expr) -> Optional[Tuple[str, List[str]]]:
    """``(attr, literals)`` for ``@a eq "x"`` / ``@a = ("x", "y")`` shapes."""
    if not isinstance(expr, ast.Comparison):
        return None
    if expr.style == "value" and expr.op not in ("eq", "ne"):
        return None
    if expr.style == "general" and expr.op not in ("=",):
        return None
    if expr.style == "node":
        return None
    if expr.op == "ne":  # [@a ne "x"] is satisfiable whenever @a exists
        return None
    for attr_side, value_side in ((expr.left, expr.right), (expr.right, expr.left)):
        attr = _bare_attribute_name(attr_side)
        if attr is None:
            continue
        literals = _literal_strings(value_side)
        if literals is not None:
            return attr, literals
    return None


# -- the whole-module pass ----------------------------------------------------


class ModuleTypeAnalysis:
    """One pass over a module: scope checking, typed findings, body type.

    Walks every unit :func:`~.cardinality.module_units` gives — function
    bodies see all globals plus parameters, a global initializer only the
    globals declared before it, the body all globals — with
    :func:`~.cardinality.iter_scoped`, and keeps that walk as ``scoped``
    for the lint rules.
    """

    def __init__(
        self,
        module: ast.Module,
        schema: Optional[DocumentSchema] = None,
        analyzer: Optional[TypeAnalyzer] = None,
    ):
        self.module = module
        if analyzer is None:
            analyzer = TypeAnalyzer(module, schema=schema)
        elif schema is not None and analyzer.schema is None:
            analyzer.schema = schema
        self.analyzer = analyzer
        #: the old statictype currency: XPST0008 / XPST0017 issues.
        self.issues: List[StaticIssue] = []
        #: raw material for the XQL010-012 rules.
        self.findings: List[TypeFinding] = []
        #: inferred type of the module body, if there is one.
        self.body_type: Optional[Inferred] = None
        #: ``(owner, root, env)`` per unit, and ``(owner, expr, env)`` for
        #: every expression in them.
        self.units = list(module_units(module, analyzer))
        self.scoped: List[Tuple[str, object, Env]] = []
        for owner, root, env in self.units:
            for expr, scope in iter_scoped(root, env, analyzer):
                self.scoped.append((owner, expr, scope))
                self._check(expr, scope)
            if root is module.body:
                self.body_type = analyzer.infer(root, env)

    def _check(self, expr, env: Env) -> None:
        analyzer = self.analyzer
        if isinstance(expr, ast.VarRef):
            if expr.name not in env:
                self.issues.append(
                    StaticIssue(
                        "XPST0008",
                        f"undefined variable ${expr.name}",
                        expr.line,
                        expr.column,
                    )
                )
        elif isinstance(expr, ast.FunctionCall):
            self._check_call(expr)
        elif isinstance(expr, (ast.Arithmetic, ast.Unary, ast.Comparison)):
            self._check_operators(expr, env)
        elif isinstance(expr, ast.PathExpr):
            analyzer._path_info(expr, env, self.findings)
        elif isinstance(expr, ast.FilterExpr):
            base_item = analyzer.item(expr.base, env)
            if base_item.kind == "element" and base_item.schema_element:
                for predicate in expr.predicates:
                    analyzer._check_predicate(
                        base_item.schema_element, predicate, self.findings
                    )

    # -- checks ------------------------------------------------------------

    def _check_call(self, expr: ast.FunctionCall) -> None:
        callee = resolve_call(expr, self.analyzer.functions)
        if callee.kind == "constructor" and len(expr.args) != 1:
            message = f"{callee.name} expects exactly one argument"
        elif callee.kind == "unknown":
            message = f"unknown function {expr.name}() with {len(expr.args)} argument(s)"
        else:
            return
        self.issues.append(StaticIssue("XPST0017", message, expr.line, expr.column))

    def _check_operators(self, expr, env: Env) -> None:
        """XQL011: comparisons/arithmetic that can only raise XPTY0004."""
        analyzer = self.analyzer
        if isinstance(expr, (ast.Arithmetic, ast.Unary)):
            operands = (
                [expr.operand] if isinstance(expr, ast.Unary) else [expr.left, expr.right]
            )
            for operand in operands:
                item = analyzer.item(operand, env)
                group = _value_group(item)
                if group in ("string", "boolean"):
                    analyzer._report(
                        self.findings,
                        "XQL011",
                        expr,
                        f"arithmetic '{expr.op}' on an operand of type "
                        f"{item.atomic} can only raise XPTY0004",
                    )
            return
        if isinstance(expr, ast.Comparison) and expr.style == "value":
            left = analyzer.item(expr.left, env)
            right = analyzer.item(expr.right, env)
            left_group = _value_group(left)
            right_group = _value_group(right)
            if left_group and right_group and left_group != right_group:
                analyzer._report(
                    self.findings,
                    "XQL011",
                    expr,
                    f"'{expr.op}' comparison between {left.atomic} and "
                    f"{right.atomic} can only raise XPTY0004",
                )


def _value_group(item: AbstractItem) -> Optional[str]:
    """Comparison group of a *concrete* atomic type (None = unknown)."""
    if item.kind != "atomic" or item.atomic is None:
        return None
    if item.atomic in _NUMERIC_ATOMICS:
        return "numeric"
    if item.atomic == "xs:string":
        return "string"
    if item.atomic == "xs:boolean":
        return "boolean"
    return None  # untypedAtomic casts to either side; stay quiet


def check_module(module: ast.Module) -> List[StaticIssue]:
    """Check name resolution and arities across the whole module.

    Drop-in replacement for the old ``statictype.check_module``; the
    scope walk now rides the typed pass instead of duplicating it.
    """
    return list(ModuleTypeAnalysis(module).issues)


def infer_body_type(
    module: ast.Module, schema: Optional[DocumentSchema] = None
) -> Optional[Inferred]:
    """The inferred static type of the module body (None if no body)."""
    if module.body is None:
        return None
    analyzer = TypeAnalyzer(module, schema=schema)
    body_env, _ = module_environments(module, analyzer)
    return analyzer.infer(module.body, body_env)


# -- call graphs and annotation pressure (moved from statictype) --------------


def call_graph(module: ast.Module) -> Dict[Tuple[str, int], Set[Tuple[str, int]]]:
    """User-function call graph over :func:`~..ast.function_table` keys:
    declaration → the declarations its body calls, as
    :func:`~..functions.resolve_call` resolves each call."""
    functions = ast.function_table(module)
    graph: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
    for key, function in functions.items():
        callees = graph[key] = set()

        def visit(node, callees=callees) -> None:
            if isinstance(node, ast.FunctionCall):
                callee = resolve_call(node, functions)
                if callee.declaration is not None:
                    callees.add((callee.name, len(node.args)))

        ast.walk(function.body, visit)
    return graph


def annotation_pressure(module: ast.Module) -> Dict[str, object]:
    """Measure the paper's type "metastasis".

    Given which functions already carry type annotations, compute the set
    of functions transitively connected to them in the call graph — the
    functions the project "had to spend a couple of days" annotating.
    Returns counts and the ratio of dragged-in functions to annotated ones.
    """
    annotated = {
        key
        for key, f in ast.function_table(module).items()
        if f.return_type is not None or any(p.declared_type for p in f.params)
    }
    graph = call_graph(module)
    undirected: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {key: set() for key in graph}
    for caller, callees in graph.items():
        for callee in callees:
            undirected[caller].add(callee)
            undirected.setdefault(callee, set()).add(caller)
    reached: Set[Tuple[str, int]] = set()
    frontier = list(annotated)
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        frontier.extend(undirected.get(key, ()))
    dragged_in = reached - annotated
    return {
        "functions": len(graph),
        "annotated": len(annotated),
        "dragged_in": len(dragged_in),
        "touched": len(reached),
        "pressure": (len(reached) / len(annotated)) if annotated else 0.0,
    }

