"""Logical plan nodes for the algebraic backend.

The algebra is deliberately small: it covers the FLWOR/path fragment that
Koch's complexity results single out as polynomial when evaluated
set-at-a-time, and every construct outside the fragment appears as an
:class:`EvalPlan` leaf that delegates to the closure compiler, which is
held at parity with the tree-walking evaluator.  That delegation rule is
what keeps the backend *exactly* faithful to the reference semantics —
the plan layer only specializes shapes it can prove equivalent, and the
differential fuzzer holds it to that.

Plan nodes are declarative: lowering builds them, fixed from then on, and
:mod:`.executor` interprets them.  Every node knows how to render itself
for ``--explain`` (text and JSON), including the estimated cardinalities
and occurrence marks :mod:`.optimize` fills in for explain alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...xdm import ElementNode, number_value, value_compare
from .. import ast
from ..compiler import PathStep

__all__ = [
    "Plan",
    "EvalPlan",
    "LiteralPlan",
    "VarPlan",
    "SequencePlan",
    "StringFnPlan",
    "BuiltinCallPlan",
    "FullTextScanPlan",
    "SetOpPlan",
    "StepPlan",
    "PathPlan",
    "FilterPlan",
    "FLWORPlan",
    "InlineCallPlan",
    "ForOp",
    "ForJoinOp",
    "LetOp",
    "WhereOp",
    "OrderOp",
    "PredPlan",
    "AttrMembershipPred",
    "AttrValueEqPred",
    "AttrExistsPred",
    "PositionalPred",
    "GenericPred",
    "PropertyFilterPred",
]


# -- predicate plans ---------------------------------------------------------


class PredPlan:
    """Base class for compiled predicates; ``expr`` is the original AST."""

    __slots__ = ("expr",)

    def __init__(self, expr: ast.Expr):
        self.expr = expr

    def describe(self) -> str:
        return type(self).__name__


class AttrMembershipPred(PredPlan):
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

    def key(self) -> tuple:
        return ("in", self.name, self.values)

    def describe(self) -> str:
        options = ", ".join(repr(v) for v in sorted(self.values))
        return f"@{self.name} in ({options})"


class AttrValueEqPred(PredPlan):
    """``[@name eq "literal"]`` — value comparison against one string."""

    __slots__ = ("name", "value")

    def __init__(self, expr: ast.Expr, name: str, value: str):
        super().__init__(expr)
        self.name = name
        self.value = value

    def key(self) -> tuple:
        return ("eq", self.name, self.value)

    def describe(self) -> str:
        return f"@{self.name} eq {self.value!r}"


class AttrExistsPred(PredPlan):
    """``[@name]`` — keep elements carrying the attribute."""

    __slots__ = ("name",)

    def __init__(self, expr: ast.Expr, name: str):
        super().__init__(expr)
        self.name = name

    def key(self) -> tuple:
        return ("exists", self.name)

    def describe(self) -> str:
        return f"exists(@{self.name})"


class PositionalPred(PredPlan):
    """A positional predicate compiled to a list slice.

    ``[k]``, ``[position() op k]`` with an integer literal, and
    ``[last()]`` all short-circuit to O(1) slicing of the candidate list
    instead of one focus-carrying evaluation per item.
    """

    __slots__ = ("op", "k")

    def __init__(self, expr: ast.Expr, op: str, k: int):
        super().__init__(expr)
        self.op = op  # "eq" | "le" | "lt" | "ge" | "gt" | "last"
        self.k = k

    def apply(self, items: list) -> list:
        op, k = self.op, self.k
        if op == "last":
            return items[-1:]
        if op == "eq":
            return items[k - 1 : k] if k >= 1 else []
        if op == "le":
            return items[: max(k, 0)]
        if op == "lt":
            return items[: max(k - 1, 0)]
        if op == "ge":
            return items[max(k - 1, 0) :] if k >= 1 else list(items)
        if op == "gt":
            return items[max(k, 0) :] if k >= 1 else list(items)
        raise AssertionError(f"unknown positional op {op!r}")

    def key(self) -> tuple:
        return ("position", self.op, self.k)

    def describe(self) -> str:
        if self.op == "last":
            return "position() = last()"
        if self.op == "eq":
            return f"position() = {self.k}"
        symbol = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">"}[self.op]
        return f"position() {symbol} {self.k}"


class GenericPred(PredPlan):
    """Any other predicate: evaluated per item by the closure compiler."""

    def describe(self) -> str:
        return f"generic predicate @{self.expr.line}:{self.expr.column}"


class PropertyFilterPred(GenericPred):
    """The calculus property filter, decided without the closure compiler.

    Lowering recognizes exactly the predicate
    :meth:`~repro.querycalc.via_xquery.XQueryCalculusBackend._compile_filter_property`
    emits for ``name op value``: ``contains(string(P), value)``, or ``P and
    (if (P/@type = ("integer", "float")) then NUMERIC else if (P/@type eq
    "boolean") then BOOLEAN else STRINGS)`` with ``P`` the
    ``property[@name eq name]`` child.  :meth:`decide` evaluates it per
    node with the engine's own cast (``number_value``) and comparison
    (``value_compare``).  It answers None for a node the shape cannot
    decide (not an element, two ``property`` children of that name, a
    repeated ``name`` or ``type`` attribute), and the executor asks the
    generic closure about that node, so errors stay the reference's.

    ``number`` is ``number(value)``, or None when the numeric branch is
    ``false()`` (a literal that does not parse); ``truth`` is the boolean
    branch's ``true()``/``false()``.  Explain shows it as the generic
    predicate it replaces.
    """

    __slots__ = ("name", "op", "value", "number", "truth")

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


# -- expression plans --------------------------------------------------------


class Plan:
    """Base class for expression-level plans."""

    __slots__ = ("est_rows", "occ")

    def __init__(self):
        self.est_rows: Optional[float] = None
        #: inferred occurrence indicator (``empty | 1 | ? | + | *``) set by
        #: explain's estimate pass and the static-type pass; display-only.
        self.occ: Optional[str] = None

    # explain -------------------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> List["Plan"]:
        return []

    def to_dict(self) -> dict:
        entry = {"op": self.label()}
        if self.est_rows is not None:
            entry["est_rows"] = round(self.est_rows, 2)
        if self.occ is not None:
            entry["occ"] = self.occ
        kids = [child.to_dict() for child in self.children() if child is not None]
        if kids:
            entry["children"] = kids
        return entry

    def render(self, indent: int = 0, out: Optional[List[str]] = None) -> List[str]:
        if out is None:
            out = []
        rows = "" if self.est_rows is None else f"  (~{self.est_rows:g} rows)"
        occ = "" if self.occ is None else f"  [occ={self.occ}]"
        out.append("  " * indent + self.label() + rows + occ)
        for child in self.children():
            if child is not None:
                child.render(indent + 1, out)
        return out


class EvalPlan(Plan):
    """Fallback leaf: the subtree is evaluated by the closure compiler."""

    __slots__ = ("expr", "note")

    def __init__(self, expr: ast.Expr, note: str = ""):
        super().__init__()
        self.expr = expr
        self.note = note

    def label(self) -> str:
        what = type(self.expr).__name__
        suffix = f" [{self.note}]" if self.note else ""
        return f"Eval({what}@{self.expr.line}:{self.expr.column}){suffix}"


class LiteralPlan(Plan):
    __slots__ = ("values",)

    def __init__(self, values: list):
        super().__init__()
        self.values = values

    def label(self) -> str:
        if not self.values:
            return "Empty()"
        return f"Literal({self.values[0]!r})"


class VarPlan(Plan):
    __slots__ = ("name", "expr")

    def __init__(self, expr: ast.VarRef):
        super().__init__()
        self.expr = expr
        self.name = expr.name

    def label(self) -> str:
        return f"Var(${self.name})"


class SequencePlan(Plan):
    __slots__ = ("items",)

    def __init__(self, items: List[Plan]):
        super().__init__()
        self.items = items

    def label(self) -> str:
        return f"Sequence[{len(self.items)}]"

    def children(self) -> List[Plan]:
        return list(self.items)


class StringFnPlan(Plan):
    """``fn:string(expr)`` with exactly one argument — a projection."""

    __slots__ = ("arg", "expr")

    def __init__(self, expr: ast.FunctionCall, arg: Plan):
        super().__init__()
        self.expr = expr
        self.arg = arg

    def label(self) -> str:
        return "Project:string"

    def children(self) -> List[Plan]:
        return [self.arg]


class BuiltinCallPlan(Plan):
    """A builtin call whose arguments are themselves plans.

    Argument plans are executed in order and the builtin is invoked with
    the same ``(ctx, args, expr)`` triple the reference evaluator uses, so
    the call itself is a pure pass-through — lowering uses this whenever an
    argument lowers to something better than a fallback leaf (the common
    case: the ``trace(...)`` wrapper the calculus compiler emits around an
    entire query body).
    """

    __slots__ = ("expr", "name", "builtin", "args")

    def __init__(self, expr: ast.FunctionCall, name: str, builtin, args: List[Plan]):
        super().__init__()
        self.expr = expr
        self.name = name
        self.builtin = builtin
        self.args = args

    def label(self) -> str:
        return f"Call:{self.name}"

    def children(self) -> List[Plan]:
        return list(self.args)


class FullTextScanPlan(Plan):
    """``ft:search($collection, $phrase)`` as a first-class scan operator.

    Execution is a pure pass-through to the builtin (the store decides
    indexed postings vs the brute-force document scan), but surfacing the
    call as an operator gives explain a catalog-backed cardinality
    — ``min(document frequency)`` over the phrase tokens, clamped by the
    collection size — and gives ``--explain`` an honest scan node instead
    of an opaque builtin call.  ``collection``/``phrase`` hold the
    argument strings when they are literals (the estimable case), else
    None.
    """

    __slots__ = ("expr", "name", "builtin", "args", "collection", "phrase")

    def __init__(
        self,
        expr: ast.FunctionCall,
        name: str,
        builtin,
        args: List[Plan],
        collection: Optional[str],
        phrase: Optional[str],
    ):
        super().__init__()
        self.expr = expr
        self.name = name
        self.builtin = builtin
        self.args = args
        self.collection = collection
        self.phrase = phrase

    def label(self) -> str:
        where = "?" if self.collection is None else (self.collection or "*")
        what = "?" if self.phrase is None else self.phrase
        return f"FullTextScan[{where} ~ {what!r}]"

    def children(self) -> List[Plan]:
        return list(self.args)


class SetOpPlan(Plan):
    __slots__ = ("op", "left", "right", "expr")

    def __init__(self, expr: ast.SetOp, left: Plan, right: Plan):
        super().__init__()
        self.expr = expr
        self.op = expr.op
        self.left = left
        self.right = right

    def label(self) -> str:
        return f"SetOp:{self.op}"

    def children(self) -> List[Plan]:
        return [self.left, self.right]


class StepPlan(PathStep):
    """One axis step of a scan: the :class:`~repro.xquery.compiler.PathStep`
    the executor runs through ``run_path_step``, plus compiled predicates.

    ``closed`` means every predicate is a compiled fast predicate with no
    free variables — the precondition for memoizing the scan's result.
    """

    __slots__ = ("separator", "predicates", "closed")

    def __init__(
        self,
        expr: ast.AxisStep,
        separator: str,
        predicates: List[PredPlan],
        closed: bool,
    ):
        super().__init__(expr, separator)
        self.separator = separator  # "/" or "//"
        self.predicates = predicates
        self.closed = closed

    def key(self) -> tuple:
        """The step's structure from its compiled parts (closed steps only:
        every predicate is a fast one with a ``key``)."""
        return (
            self.separator,
            self.axis,
            self.test.kind,
            self.test.name,
            tuple(pred.key() for pred in self.predicates),
        )

    def describe(self) -> str:
        test = self.test.name if self.test.name is not None else self.test.kind + "()"
        preds = "".join(f"[{p.describe()}]" for p in self.predicates)
        prefix = "//" if self.separator == "//" else "/"
        axis = "" if self.axis == "child" else f"{self.axis}::"
        if self.axis == "attribute":
            axis, test = "", f"@{self.test.name or '*'}"
        return f"{prefix}{axis}{test}{preds}"


class PathPlan(Plan):
    """A scan: base sequence (or the context item / document root) + steps."""

    __slots__ = ("expr", "anchor", "base", "steps", "cacheable", "scan_key")

    def __init__(
        self,
        expr: ast.PathExpr,
        anchor: Optional[str],
        base: Optional[Plan],
        steps: List[StepPlan],
    ):
        super().__init__()
        self.expr = expr
        self.anchor = anchor
        self.base = base
        self.steps = steps
        #: set by lowering: all steps closed and side-effect free, so the
        #: step application may be shared across queries in a batch, keyed
        #: on ``scan_key`` (the steps' :meth:`StepPlan.key` tuples).
        self.cacheable = False
        self.scan_key: Optional[tuple] = None

    def label(self) -> str:
        path = "".join(step.describe() for step in self.steps)
        if self.anchor:
            path = ("/" if self.anchor == "/" else "//") + path.lstrip("/")
            base = "root"
        elif self.base is None:
            base = "."
        else:
            base = "base"
        shared = " shared" if self.cacheable else ""
        return f"Scan({base}{path}){shared}"

    def children(self) -> List[Plan]:
        return [self.base] if self.base is not None else []


class FilterPlan(Plan):
    """``base[p1][p2]`` — predicates over one whole sequence."""

    __slots__ = ("expr", "base", "predicates")

    def __init__(self, expr: ast.FilterExpr, base: Plan, predicates: List[PredPlan]):
        super().__init__()
        self.expr = expr
        self.base = base
        self.predicates = predicates

    def label(self) -> str:
        preds = "".join(f"[{p.describe()}]" for p in self.predicates)
        return f"Select{preds}"

    def children(self) -> List[Plan]:
        return [self.base]


class InlineCallPlan(Plan):
    """A non-recursive user function call inlined into the plan."""

    __slots__ = ("expr", "declaration", "args", "body")

    def __init__(
        self,
        expr: ast.FunctionCall,
        declaration: ast.FunctionDecl,
        args: List[Plan],
        body: Plan,
    ):
        super().__init__()
        self.expr = expr
        self.declaration = declaration
        self.args = args
        self.body = body

    def label(self) -> str:
        return f"InlineCall:{self.declaration.name}"

    def children(self) -> List[Plan]:
        return list(self.args) + [self.body]


# -- FLWOR tuple operators ---------------------------------------------------


class TupleOp:
    """Base class for FLWOR pipeline operators."""

    __slots__ = ("est_rows", "occ")

    def __init__(self):
        self.est_rows: Optional[float] = None
        #: inferred occurrence of the per-tuple binding (display-only).
        self.occ: Optional[str] = None

    def label(self) -> str:
        return type(self).__name__

    def plans(self) -> List[Plan]:
        return []


class ForOp(TupleOp):
    """Tuple source: ``for $var [at $pos] in source``.

    ``invariant`` marks sources that cannot observe the tuple variables
    bound so far and in which :class:`~..optimizer.Effects` finds nothing
    but a read of the focus, which is fixed for one FLWOR execution; the
    executor evaluates those once per FLWOR execution instead of once per
    tuple.
    """

    __slots__ = ("clause", "var", "position_var", "source", "invariant")

    def __init__(self, clause: ast.ForClause, source: Plan, invariant: bool):
        super().__init__()
        self.clause = clause
        self.var = clause.var
        self.position_var = clause.position_var
        self.source = source
        self.invariant = invariant

    def label(self) -> str:
        note = " invariant" if self.invariant else ""
        return f"For ${self.var}{note}"

    def plans(self) -> List[Plan]:
        return [self.source]


class ForJoinOp(TupleOp):
    """A correlated scan turned into a memoized hash join.

    ``for $var in base/...[@attr eq probe]`` where *probe* depends on tuple
    variables: the scan up to the join predicate is evaluated once per
    distinct base (the build side, hashed on ``@attr``); each tuple then
    evaluates *probe* (the probe side) and looks its atoms up in the table.
    This is the rewrite that takes the generated follow-step queries from
    O(tuples x relations) to O(tuples + relations).
    """

    __slots__ = (
        "clause",
        "var",
        "position_var",
        "scan",
        "build_attr",
        "probe_expr",
        "style",
        "residual",
        "join_expr",
        "probe_shape",
        "base_var",
    )

    def __init__(
        self,
        clause: ast.ForClause,
        scan: PathPlan,
        build_attr: str,
        probe_expr: ast.Expr,
        style: str,
        residual: List[PredPlan],
        join_expr: ast.Comparison,
    ):
        super().__init__()
        self.clause = clause
        self.var = clause.var
        self.position_var = clause.position_var
        self.scan = scan
        self.build_attr = build_attr  # attribute hashed on the build side
        self.probe_expr = probe_expr
        self.style = style  # "value" (eq) or "general" (=)
        self.residual = residual
        self.join_expr = join_expr
        #: ``(var, attr)`` when the probe is exactly ``$var/@attr``, which
        #: the executor reads directly instead of evaluating the probe.
        self.probe_shape = _probe_shape(probe_expr)
        #: the variable when the scan is based on exactly ``root($var)``,
        #: which the executor resolves through a per-node memo.
        self.base_var = _root_var(scan)

    def label(self) -> str:
        op = "eq" if self.style == "value" else "="
        residual = "".join(f"[{p.describe()}]" for p in self.residual)
        return f"HashJoin ${self.var} on @{self.build_attr} {op} probe{residual}"

    def plans(self) -> List[Plan]:
        return [self.scan]


def _probe_shape(expr: ast.Expr) -> Optional[Tuple[str, str]]:
    """``(var, attr)`` when *expr* is exactly ``$var/@attr`` — the shape of
    every probe the calculus compiler generates."""
    if (
        isinstance(expr, ast.PathExpr)
        and expr.anchor is None
        and isinstance(expr.first, ast.VarRef)
        and len(expr.steps) == 1
    ):
        separator, step = expr.steps[0]
        if (
            separator == "/"
            and isinstance(step, ast.AxisStep)
            and step.axis == "attribute"
            and not step.predicates
            and step.test.kind == "name"
            and step.test.name is not None
        ):
            return expr.first.name, step.test.name
    return None


def _root_var(scan: PathPlan) -> Optional[str]:
    """The variable name when *scan* is based on exactly ``root($var)`` —
    the anchor shape of every scan the calculus compiler emits."""
    base = scan.base
    if (
        scan.anchor is None
        and isinstance(base, BuiltinCallPlan)
        and base.name == "root"
        and len(base.args) == 1
        and isinstance(base.args[0], VarPlan)
    ):
        return base.args[0].name
    return None


class LetOp(TupleOp):
    __slots__ = ("clause", "var", "value", "declared_type")

    def __init__(self, clause: ast.LetClause, value: Plan):
        super().__init__()
        self.clause = clause
        self.var = clause.var
        self.value = value
        self.declared_type = clause.declared_type

    def label(self) -> str:
        return f"Let ${self.var}"

    def plans(self) -> List[Plan]:
        return [self.value]


class WhereOp(TupleOp):
    __slots__ = ("condition", "condition_expr")

    def __init__(self, condition_expr: ast.Expr, condition: Plan):
        super().__init__()
        self.condition_expr = condition_expr
        self.condition = condition

    def label(self) -> str:
        return "Select:where"

    def plans(self) -> List[Plan]:
        return [self.condition]


class OrderOp(TupleOp):
    """``order by`` over the tuple stream — a decorated stable sort."""

    __slots__ = ("clause", "specs")

    def __init__(self, clause: ast.OrderByClause, specs: List[tuple]):
        super().__init__()
        self.clause = clause
        #: list of (key plan, descending, empty_least)
        self.specs = specs

    def label(self) -> str:
        keys = ", ".join(
            f"key{' desc' if descending else ''}" for _, descending, _ in self.specs
        )
        return f"OrderBy({keys})"

    def plans(self) -> List[Plan]:
        return [key for key, _, _ in self.specs]


class FLWORPlan(Plan):
    """The tuple pipeline: sources, joins, selections, sort, projection."""

    __slots__ = ("expr", "ops", "result", "result_expr")

    def __init__(
        self, expr: ast.FLWOR, ops: List[TupleOp], result: Plan, result_expr: ast.Expr
    ):
        super().__init__()
        self.expr = expr
        self.ops = ops
        self.result = result
        self.result_expr = result_expr

    def label(self) -> str:
        return "FLWOR"

    def children(self) -> List[Plan]:
        collected: List[Plan] = []
        for op in self.ops:
            collected.extend(op.plans())
        collected.append(self.result)
        return collected

    def to_dict(self) -> dict:
        entry = {"op": "FLWOR"}
        if self.est_rows is not None:
            entry["est_rows"] = round(self.est_rows, 2)
        pipeline = []
        for op in self.ops:
            op_entry = {"op": op.label()}
            if op.est_rows is not None:
                op_entry["est_rows"] = round(op.est_rows, 2)
            if op.occ is not None:
                op_entry["occ"] = op.occ
            plans = [plan.to_dict() for plan in op.plans() if plan is not None]
            if plans:
                op_entry["inputs"] = plans
            pipeline.append(op_entry)
        entry["pipeline"] = pipeline
        entry["return"] = self.result.to_dict()
        return entry

    def render(self, indent: int = 0, out: Optional[List[str]] = None) -> List[str]:
        if out is None:
            out = []
        rows = "" if self.est_rows is None else f"  (~{self.est_rows:g} rows)"
        out.append("  " * indent + "FLWOR" + rows)
        for op in self.ops:
            op_rows = "" if op.est_rows is None else f"  (~{op.est_rows:g} tuples)"
            op_occ = "" if op.occ is None else f"  [occ={op.occ}]"
            out.append("  " * (indent + 1) + op.label() + op_rows + op_occ)
            for plan in op.plans():
                if plan is not None:
                    plan.render(indent + 2, out)
        out.append("  " * (indent + 1) + "Return")
        self.result.render(indent + 2, out)
        return out
