"""Occurrence (cardinality) intervals and the analyzer's one scope rule.

The paper's E1 table shows why this matters: ``($x, $y, $z)[2]`` answers
"what is item 2?" differently depending on how each part flattens, and
Galax reported the resulting surprises as ``Index out of bounds, without
any information of where``.  The analyzer infers, for every expression, a
conservative interval of how many items it can produce — the
empty / exactly-one / zero-or-more lattice the rules build on.

A :class:`Card` is a ``[lo, hi]`` interval (``hi=None`` is unbounded).
The familiar lattice points are the constants ``EMPTY`` (0,0), ``ONE``
(1,1), ``OPT`` (0,1), ``STAR`` (0,∞), and ``PLUS`` (1,∞); exact finite
lengths such as (3,3) fall out of concatenation for free.

:func:`scopes` is the one place the lexical scope of XQuery's binders is
coded: every inference, the scoped walk (:func:`iter_scoped`) and the
shadowing rule read the environment a child expression runs in from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .. import ast
from ..functions import resolve_call
from ...xdm import SequenceType

#: intervals wider than this saturate to "unbounded".
_HI_CAP = 1000


@dataclass(frozen=True)
class Card:
    """How many items an expression can produce: a ``[lo, hi]`` interval."""

    lo: int
    hi: Optional[int]  # None = unbounded

    def __repr__(self) -> str:
        hi = "*" if self.hi is None else self.hi
        return f"Card({self.lo},{hi})"

    @property
    def can_be_empty(self) -> bool:
        return self.lo == 0

    @property
    def is_exactly_one(self) -> bool:
        return self.lo == 1 and self.hi == 1


EMPTY = Card(0, 0)
ONE = Card(1, 1)
OPT = Card(0, 1)
STAR = Card(0, None)
PLUS = Card(1, None)


def concat(a: Card, b: Card) -> Card:
    """Cardinality of the sequence concatenation ``(a, b)``."""
    lo = min(a.lo + b.lo, _HI_CAP)
    if a.hi is None or b.hi is None:
        return Card(lo, None)
    hi = a.hi + b.hi
    return Card(lo, None if hi > _HI_CAP else hi)


def multiply(a: Card, b: Card) -> Card:
    """Cardinality of *b* items produced once per each of *a* tuples."""
    lo = min(a.lo * b.lo, _HI_CAP)
    if a.hi is None or b.hi is None:
        return Card(lo, None)
    hi = a.hi * b.hi
    return Card(lo, None if hi > _HI_CAP else hi)


def join(a: Card, b: Card) -> Card:
    """Least upper bound: either branch may be taken."""
    if a.hi is None or b.hi is None:
        hi: Optional[int] = None
    else:
        hi = max(a.hi, b.hi)
    return Card(min(a.lo, b.lo), hi)


def from_sequence_type(sequence_type: Optional[SequenceType]) -> Card:
    """The interval a declared ``as`` annotation promises."""
    if sequence_type is None:
        return STAR
    if sequence_type.item_type is None:  # empty-sequence()
        return EMPTY
    return {
        SequenceType.EXACTLY_ONE: ONE,
        SequenceType.ZERO_OR_ONE: OPT,
        SequenceType.ZERO_OR_MORE: STAR,
        SequenceType.ONE_OR_MORE: PLUS,
    }.get(sequence_type.occurrence, STAR)


@dataclass(frozen=True)
class Binding:
    """What is statically known about one bound variable."""

    card: Card = STAR
    may_be_attribute: bool = False
    attribute_name: Optional[str] = None  # when provably one named attribute
    #: abstract item type (``analysis.types.AbstractItem``); None = any item.
    item: Optional[object] = None


Env = Dict[str, Binding]


@dataclass(frozen=True)
class Binder:
    """One variable binding site, as :func:`scopes` reports it."""

    kind: str  # for, let, some, every, case, default or catch
    name: str
    line: int
    column: int


def range_card(expr: ast.RangeExpr) -> Card:
    """Exact when both ends of ``m to n`` are integer literals."""
    start, end = expr.start, expr.end
    if (
        isinstance(start, ast.Literal)
        and isinstance(end, ast.Literal)
        and isinstance(start.value, int)
        and isinstance(end.value, int)
    ):
        n = end.value - start.value + 1
        if n <= 0:
            return EMPTY
        return Card(min(n, _HI_CAP), None if n > _HI_CAP else n)
    return STAR


def positional_index(predicate, functions) -> Optional[int]:
    """N when *predicate* is the positional filter ``[N]`` (or
    ``[position() = N]`` / ``[position() eq N]``, with ``position`` the
    builtin over *functions*), else None."""
    if isinstance(predicate, ast.Literal) and isinstance(predicate.value, int):
        return predicate.value
    if (
        isinstance(predicate, ast.Comparison)
        and predicate.op in ("=", "eq")
        and isinstance(predicate.left, ast.FunctionCall)
        and resolve_call(predicate.left, functions).is_builtin("position")
        and isinstance(predicate.right, ast.Literal)
        and isinstance(predicate.right.value, int)
    ):
        return predicate.right.value
    return None


# -- the scope rule -------------------------------------------------------------


def _bind(env: Env, name: str, binding: Binding) -> Env:
    inner = dict(env)
    inner[name] = binding
    return inner


def scopes(expr, env: Env, analyzer) -> Iterator[Tuple[object, Env]]:
    """Yield ``(child, env)`` for each child of *expr*, in evaluation order,
    with the environment the child runs in.

    Each variable *expr* binds comes just before the children that see it,
    as ``(Binder, env)`` with the environment it is bound in; the
    analyzer's binding hooks give its :class:`Binding`.  The binders are
    for/at/let clauses, some/every, typeswitch case and default variables
    and the catch variable.
    """
    if isinstance(expr, ast.FLWOR):
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                yield clause.source, env
                yield Binder("for", clause.var, clause.line, clause.column), env
                env = _bind(env, clause.var, analyzer.for_binding(clause.source, env))
                if clause.position_var:
                    yield Binder("for", clause.position_var, clause.line, clause.column), env
                    env = _bind(env, clause.position_var, analyzer.position_binding())
            elif isinstance(clause, ast.LetClause):
                yield clause.value, env
                yield Binder("let", clause.var, clause.line, clause.column), env
                env = _bind(env, clause.var, analyzer.binding_of(clause.value, env))
            elif isinstance(clause, ast.WhereClause):
                yield clause.condition, env
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    yield spec.key, env
        yield expr.result, env
    elif isinstance(expr, ast.Quantified):
        for var, source in expr.bindings:
            yield source, env
            yield Binder(expr.quantifier, var, source.line, source.column), env
            env = _bind(env, var, analyzer.quantifier_binding(source, env))
        yield expr.satisfies, env
    elif isinstance(expr, ast.Typeswitch):
        yield expr.operand, env
        for case in expr.cases:
            inner = env
            if case.var:
                yield Binder("case", case.var, expr.line, expr.column), env
                inner = _bind(env, case.var, analyzer.case_binding(case.sequence_type))
            yield case.result, inner
        inner = env
        if expr.default_var:
            yield Binder("default", expr.default_var, expr.line, expr.column), env
            inner = _bind(
                env, expr.default_var, analyzer.default_case_binding(expr.operand, env)
            )
        yield expr.default, inner
    elif isinstance(expr, ast.TryCatch):
        yield expr.body, env
        inner = env
        if expr.catch_var:
            yield Binder("catch", expr.catch_var, expr.line, expr.column), env
            inner = _bind(env, expr.catch_var, analyzer.catch_binding())
        yield expr.handler, inner
    else:
        for child in ast.children_of(expr):
            yield child, env


def iter_scoped(root, env: Env, analyzer) -> Iterator[Tuple[object, Env]]:
    """Yield ``(expr, env)`` for every expression under *root*, with the
    environment that is in scope at that expression (see :func:`scopes`)."""
    if root is None:
        return
    yield root, env
    for child, scope in scopes(root, env, analyzer):
        if not isinstance(child, Binder):
            yield from iter_scoped(child, scope, analyzer)


def module_environments(module: ast.Module, analyzer):
    """Initial environments: one for the module body (globals), and one
    per function (globals + parameters).  Returned as
    ``(body_env, {id(function_decl): env})``."""
    globals_env: Env = {}
    for declaration in module.variables:
        globals_env[declaration.name] = analyzer.global_binding(
            declaration, globals_env
        )
    function_envs = {}
    for function in module.functions:
        env = dict(globals_env)
        for param in function.params:
            env[param.name] = analyzer.param_binding(param)
        function_envs[id(function)] = env
    return globals_env, function_envs


def module_units(module: ast.Module, analyzer) -> Iterator[Tuple[str, object, Env]]:
    """Yield ``(owner, root, env)`` per function body, global initializer
    and module body, in that order.

    A function body sees every global and its parameters, and the module
    body every global.  A global initializer sees only the globals
    declared before it, as ``CompiledQuery._bind_globals`` binds them.
    """
    body_env, function_envs = module_environments(module, analyzer)
    for function in module.functions:
        yield function.name, function.body, function_envs[id(function)]
    earlier: Env = {}
    for declaration in module.variables:
        if declaration.value is not None:
            yield f"${declaration.name}", declaration.value, dict(earlier)
        earlier[declaration.name] = body_env[declaration.name]
    if module.body is not None:
        yield "<body>", module.body, body_env
