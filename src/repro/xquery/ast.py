"""Abstract syntax tree for the XQuery subset.

Plain dataclasses; the evaluator pattern-matches on class.  Every node
carries a source position for error messages — the paper complains at
length that Galax reported "Index out of bounds" with no location, so this
engine threads locations everywhere (and can optionally suppress them to
reproduce the 2004 debugging experience).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..xdm import SequenceType


@dataclass
class Expr:
    """Base class for expressions."""

    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


def at(expr: Expr, token) -> Expr:
    """Stamp *expr* with the position of *token* and return it."""
    expr.line = token.line
    expr.column = token.column
    return expr


# -- literals and simple primaries ------------------------------------------


@dataclass
class Literal(Expr):
    """A string/number/boolean literal."""

    value: object = None


@dataclass
class EmptySequence(Expr):
    """The literal ``()``."""


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ContextItem(Expr):
    """The expression ``.``."""


@dataclass
class SequenceExpr(Expr):
    """Comma operator: concatenation with flattening."""

    items: List[Expr] = field(default_factory=list)


@dataclass
class RangeExpr(Expr):
    """``$a to $b``."""

    start: Expr = None
    end: Expr = None


@dataclass
class Arithmetic(Expr):
    op: str = ""  # + - * div idiv mod
    left: Expr = None
    right: Expr = None


@dataclass
class Unary(Expr):
    op: str = "-"
    operand: Expr = None


@dataclass
class Comparison(Expr):
    """General (= != < ...), value (eq ne ...), or node (is << >>)."""

    op: str = ""
    style: str = "general"  # general | value | node
    left: Expr = None
    right: Expr = None


@dataclass
class BooleanOp(Expr):
    op: str = "and"
    left: Expr = None
    right: Expr = None


@dataclass
class SetOp(Expr):
    """union | intersect | except, over node sequences."""

    op: str = "union"
    left: Expr = None
    right: Expr = None


# -- paths -------------------------------------------------------------------


@dataclass
class NodeTest:
    """A node test: name test (possibly wildcard) or kind test."""

    kind: str = "name"  # name | wildcard | node | text | element | attribute
    #                     | comment | processing-instruction | document-node
    name: Optional[str] = None


@dataclass
class AxisStep(Expr):
    axis: str = "child"
    test: NodeTest = field(default_factory=NodeTest)
    predicates: List[Expr] = field(default_factory=list)


@dataclass
class FilterExpr(Expr):
    """A primary expression with predicates: ``$x[2]``, ``(1,2,3)[. gt 1]``."""

    base: Expr = None
    predicates: List[Expr] = field(default_factory=list)


@dataclass
class PathExpr(Expr):
    """A path: optional root anchor, then steps.

    ``anchor`` is ``None`` (relative), ``"/"`` (from root), or ``"//"``
    (from root, descendant-or-self).  Each step pairs a separator (``"/"``
    or ``"//"``) with an expression (axis step or filter expr).
    """

    anchor: Optional[str] = None
    first: Optional[Expr] = None
    steps: List[Tuple[str, Expr]] = field(default_factory=list)


# -- FLWOR, conditionals, quantifiers ----------------------------------------


@dataclass
class ForClause:
    var: str = ""
    position_var: Optional[str] = None
    source: Expr = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class LetClause:
    var: str = ""
    value: Expr = None
    declared_type: Optional[SequenceType] = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class WhereClause:
    condition: Expr = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class OrderSpec:
    key: Expr = None
    descending: bool = False
    empty_least: bool = True


@dataclass
class OrderByClause:
    specs: List[OrderSpec] = field(default_factory=list)
    stable: bool = False


@dataclass
class FLWOR(Expr):
    clauses: List[object] = field(default_factory=list)
    result: Expr = None


@dataclass
class Quantified(Expr):
    quantifier: str = "some"  # some | every
    bindings: List[Tuple[str, Expr]] = field(default_factory=list)
    satisfies: Expr = None


@dataclass
class IfExpr(Expr):
    condition: Expr = None
    then_branch: Expr = None
    else_branch: Expr = None


@dataclass
class CaseClause:
    """One ``case [$var as] SequenceType return expr`` arm."""

    sequence_type: SequenceType = None
    var: Optional[str] = None
    result: Expr = None


@dataclass
class Typeswitch(Expr):
    """``typeswitch (expr) case ... default [$var] return expr``."""

    operand: Expr = None
    cases: List[CaseClause] = field(default_factory=list)
    default_var: Optional[str] = None
    default: Expr = None


@dataclass
class TryCatch(Expr):
    """``try { expr } catch [$var] { expr }`` — the XQuery 3.0 feature
    that answers the paper's lesson 4, implemented as an extension.

    The catch variable, if present, is bound to an
    ``<error code="..."><message>...</message></error>`` element.
    """

    body: Expr = None
    catch_var: Optional[str] = None
    handler: Expr = None


# -- functions ----------------------------------------------------------------


@dataclass
class FunctionCall(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Param:
    name: str = ""
    declared_type: Optional[SequenceType] = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass
class FunctionDecl:
    name: str = ""
    params: List[Param] = field(default_factory=list)
    return_type: Optional[SequenceType] = None
    body: Expr = None
    line: int = 0
    column: int = 0

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class VariableDecl:
    name: str = ""
    declared_type: Optional[SequenceType] = None
    value: Optional[Expr] = None  # None means "external"
    line: int = 0
    column: int = 0


# -- constructors ---------------------------------------------------------------


@dataclass
class DirectElement(Expr):
    """``<name attr="...">content</name>``.

    Attribute values and content are lists mixing literal strings and
    enclosed expressions.
    """

    name: str = ""
    attributes: List[Tuple[str, List[object]]] = field(default_factory=list)
    content: List[object] = field(default_factory=list)


@dataclass
class DirectText:
    """Literal character data inside a direct constructor."""

    text: str = ""


@dataclass
class DirectComment(Expr):
    text: str = ""


@dataclass
class DirectPI(Expr):
    """A processing instruction inside a direct constructor."""

    target: str = ""
    text: str = ""


@dataclass
class ComputedElement(Expr):
    name_expr: Expr = None  # or None with static name
    name: Optional[str] = None
    content: Optional[Expr] = None


@dataclass
class ComputedAttribute(Expr):
    name_expr: Expr = None
    name: Optional[str] = None
    content: Optional[Expr] = None


@dataclass
class ComputedText(Expr):
    content: Optional[Expr] = None


@dataclass
class ComputedComment(Expr):
    content: Optional[Expr] = None


@dataclass
class ComputedDocument(Expr):
    content: Optional[Expr] = None


# -- types ---------------------------------------------------------------------


@dataclass
class InstanceOf(Expr):
    operand: Expr = None
    sequence_type: SequenceType = None


@dataclass
class CastAs(Expr):
    operand: Expr = None
    type_name: str = ""
    allow_empty: bool = False


@dataclass
class CastableAs(Expr):
    operand: Expr = None
    type_name: str = ""
    allow_empty: bool = False


@dataclass
class TreatAs(Expr):
    operand: Expr = None
    sequence_type: SequenceType = None


# -- module ----------------------------------------------------------------------


@dataclass
class Module:
    """A parsed query: prolog declarations plus the body expression."""

    functions: List[FunctionDecl] = field(default_factory=list)
    variables: List[VariableDecl] = field(default_factory=list)
    namespaces: List[Tuple[str, str]] = field(default_factory=list)
    body: Optional[Expr] = None
    source: str = ""


def function_table(module: Module) -> Dict[Tuple[str, int], FunctionDecl]:
    """The module's declared functions keyed as the runtime resolves a
    call: by name with a ``local:`` prefix stripped, and arity.  The first
    of two same-keyed declarations wins (the engine rejects the second
    with XQST0034)."""
    table: Dict[Tuple[str, int], FunctionDecl] = {}
    for declaration in module.functions:
        name = declaration.name.removeprefix("local:")
        table.setdefault((name, declaration.arity), declaration)
    return table


def walk(expr, visit) -> None:
    """Depth-first walk calling ``visit`` on every Expr node."""
    if expr is None:
        return
    if isinstance(expr, Expr):
        visit(expr)
    for child in children_of(expr):
        walk(child, visit)


def children_of(expr) -> List[object]:
    """Child expressions of an AST node, in evaluation order."""
    if isinstance(expr, SequenceExpr):
        return list(expr.items)
    if isinstance(expr, RangeExpr):
        return [expr.start, expr.end]
    if isinstance(expr, (Arithmetic, Comparison, BooleanOp, SetOp)):
        return [expr.left, expr.right]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, AxisStep):
        return list(expr.predicates)
    if isinstance(expr, FilterExpr):
        return [expr.base] + list(expr.predicates)
    if isinstance(expr, PathExpr):
        children = []
        if expr.first is not None:
            children.append(expr.first)
        children.extend(step for _, step in expr.steps)
        return children
    if isinstance(expr, FLWOR):
        children = []
        for clause in expr.clauses:
            children.extend(clause_exprs(clause))
        children.append(expr.result)
        return children
    if isinstance(expr, Quantified):
        return [source for _, source in expr.bindings] + [expr.satisfies]
    if isinstance(expr, IfExpr):
        return [expr.condition, expr.then_branch, expr.else_branch]
    if isinstance(expr, Typeswitch):
        return (
            [expr.operand]
            + [case.result for case in expr.cases]
            + [expr.default]
        )
    if isinstance(expr, TryCatch):
        return [expr.body, expr.handler]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, DirectElement):
        children = []
        for _, value_parts in expr.attributes:
            children.extend(p for p in value_parts if isinstance(p, Expr))
        children.extend(p for p in expr.content if isinstance(p, Expr))
        return children
    if isinstance(expr, (ComputedElement, ComputedAttribute)):
        children = []
        if expr.name_expr is not None:
            children.append(expr.name_expr)
        if expr.content is not None:
            children.append(expr.content)
        return children
    if isinstance(expr, (ComputedText, ComputedComment, ComputedDocument)):
        return [expr.content] if expr.content is not None else []
    if isinstance(expr, (InstanceOf, CastAs, CastableAs, TreatAs)):
        return [expr.operand]
    return []


def clause_exprs(clause) -> List[Expr]:
    """The expressions of one FLWOR clause, in evaluation order."""
    if isinstance(clause, ForClause):
        return [clause.source]
    if isinstance(clause, LetClause):
        return [clause.value]
    if isinstance(clause, WhereClause):
        return [clause.condition]
    return [spec.key for spec in clause.specs]
