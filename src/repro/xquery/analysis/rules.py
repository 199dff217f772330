"""The paper-grounded lint rules (XQL001–XQL008) and their registry.

Each rule encodes one footgun the paper hit in 2004:

* **XQL001** — the Galax optimizer "helpfully" deleting ``trace`` probes
  bound to dead variables;
* **XQL002** — the error-as-value convention used without its mandatory
  ``is-error`` check ("nearly every function call [became] a half-dozen
  lines");
* **XQL003** — positional predicates over sequences whose flattening is
  not statically fixed (the E1 sequence-indexing table, and the
  ``Index out of bounds, without any information of where`` death);
* **XQL004** — attribute constructors folding into the parent element or
  erroring when they arrive after content (the E2 table);
* **XQL005** — unused functions/variables and unreachable branches (what
  the optimizer silently removes, the author silently loses);
* **XQL006** — variable shadowing in FLWOR clauses (aggravated by the
  paper's syntax complaints: ``$n-1`` is a *name*, so shadowing is easy
  to introduce while "fixing" exactly that);
* **XQL007 / XQL008** — the name-resolution and arity checks of the
  untyped-mode checker (:func:`.types.check_module`), as lint rules (their
  W3C codes XPST0008/XPST0017 ride along as ``spec_code``);
* **XQL009** — FLWOR nests that are unconstrained cartesian products: a
  later ``for`` clause with no join predicate (in its source or a
  ``where``) tying it to an earlier binding multiplies the tuple stream
  by its whole source, and a 2004 engine evaluated exactly that;
* **XQL010–XQL012** — the schema-aware checks from the typed inference
  pass (:mod:`.types` against :mod:`.schema`): dead paths that can never
  match an exportable node, comparisons/arithmetic that can only raise
  XPTY0004, and predicates provably vacuous against attribute domains
  (the paper's silently-empty-path failure mode, caught before running).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .. import ast
from ..functions import resolve_call
from ..optimizer import DeadLet, dead_lets, free_variables
from ...xdm import ItemType
from .cardinality import Binder, Env, positional_index, scopes
from .diagnostics import Diagnostic
from .schema import awb_export_schema
from .types import ModuleTypeAnalysis, TypeAnalyzer

#: a declared function as :func:`~..ast.function_table` keys it.
Key = Tuple[str, int]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    slug: str
    summary: str
    paper: str  # where in the paper the footgun lives
    check: Callable[["ModuleAnalysis"], Iterable[Diagnostic]]


RULES: Dict[str, Rule] = {}


def rule(code: str, slug: str, summary: str, paper: str):
    """Class decorator-style registration for rule check functions."""

    def register(fn: Callable[["ModuleAnalysis"], Iterable[Diagnostic]]):
        RULES[code] = Rule(code=code, slug=slug, summary=summary, paper=paper, check=fn)
        return fn

    return register


class ModuleAnalysis:
    """Shared per-module facts the rules draw on.

    Built once per :func:`analyze_module` call: the analyzer, the typed
    pass whose scoped walk every rule reads, the fallible-function
    fixpoint, and the checker-function set.  ``has_body`` is False for
    library modules (prolog only, body synthesized) — some rules relax
    there.
    """

    def __init__(self, module: ast.Module, config=None, has_body: Optional[bool] = None):
        self.module = module
        self.config = config
        self.has_body = module.body is not None if has_body is None else has_body
        schema = None
        if getattr(config, "lint_schema", "awb") != "off":
            schema = awb_export_schema()
        self.analyzer = TypeAnalyzer(module, schema=schema)
        self._fallible: Optional[Set[Key]] = None
        self._constructors: Optional[Set[Key]] = None
        self._checkers: Optional[Set[Key]] = None
        self._types: Optional[ModuleTypeAnalysis] = None

    @cached_property
    def dead_lets(self) -> Dict[int, DeadLet]:
        """The 2004 dead-code pass's decision, which XQL001 and XQL005 report."""
        return dead_lets(self.module, trace_is_dead_code=True, functions=self.analyzer.functions)

    @property
    def types(self) -> ModuleTypeAnalysis:
        """The whole-module typed pass (scope issues + XQL010-012 findings)."""
        if self._types is None:
            self._types = ModuleTypeAnalysis(self.module, analyzer=self.analyzer)
        return self._types

    # -- traversal helpers --------------------------------------------------

    def units(self) -> List[Tuple[str, object, Env]]:
        """``(owner, root_expr, initial_env)`` per function, global
        initializer and body (see :func:`~.cardinality.module_units`)."""
        return self.types.units

    def scoped(self) -> List[Tuple[str, object, Env]]:
        """``(owner, expr, env)`` for every expression in the module."""
        return self.types.scoped

    # -- the error-as-value convention (XQL002 machinery) -------------------

    def called(self, call: ast.FunctionCall) -> Optional[Key]:
        """The :func:`~..ast.function_table` key of the declaration *call*
        names, if :func:`~..functions.resolve_call` says it names one."""
        callee = resolve_call(call, self.analyzer.functions)
        return None if callee.declaration is None else (callee.name, len(call.args))

    def checker_functions(self) -> Set[Key]:
        """Functions that *test* for an error value (``local:is-error``):
        their body applies ``instance of element(error)`` to a parameter."""
        if self._checkers is None:
            checkers: Set[Key] = set()
            for key, function in self.analyzer.functions.items():
                params = {p.name for p in function.params}
                found: List[bool] = []

                def visit(node, params=params, found=found) -> None:
                    if (
                        isinstance(node, ast.InstanceOf)
                        and node.sequence_type is not None
                        and node.sequence_type.item_type is not None
                        and node.sequence_type.item_type.category == ItemType.NODE
                        and node.sequence_type.item_type.node_kind == "element"
                        and node.sequence_type.item_type.name == "error"
                        and isinstance(node.operand, ast.VarRef)
                        and node.operand.name in params
                    ):
                        found.append(True)

                ast.walk(function.body, visit)
                if found:
                    checkers.add(key)
            self._checkers = checkers
        return self._checkers

    @staticmethod
    def _constructs_error_element(expr) -> bool:
        found: List[bool] = []

        def visit(node) -> None:
            if isinstance(node, ast.DirectElement) and node.name == "error":
                found.append(True)
            elif isinstance(node, ast.ComputedElement) and node.name == "error":
                found.append(True)

        ast.walk(expr, visit)
        return bool(found)

    def fallible_functions(self) -> Tuple[Set[Key], Set[Key]]:
        """``(fallible, constructors)`` by :func:`~..ast.function_table` key.

        *Constructors* always return an error element (``local:mk-error``);
        calling one is intentional construction, never flagged.  *Fallible*
        functions may return an error element — directly, or by containing
        an unguarded call to another fallible function (fixpoint).
        """
        if self._fallible is None:
            constructors: Set[Key] = set()
            fallible: Set[Key] = set()
            for key, function in self.analyzer.functions.items():
                body = _unwrap_parens(function.body)
                if (
                    isinstance(body, (ast.DirectElement, ast.ComputedElement))
                    and body.name == "error"
                ):
                    constructors.add(key)
                if self._constructs_error_element(function.body):
                    fallible.add(key)
            changed = True
            while changed:
                changed = False
                for key, function in self.analyzer.functions.items():
                    if key in fallible:
                        continue
                    # tail-position propagation spreads fallibility too, so
                    # the fixpoint does NOT exempt tail calls.
                    if self._unguarded_calls(
                        function.body, fallible | constructors, exempt_tail=False
                    ):
                        fallible.add(key)
                        changed = True
            self._fallible = fallible
            self._constructors = constructors
        return self._fallible, self._constructors

    def _unguarded_calls(
        self, root, fallible: Set[Key], exempt_tail: bool = True
    ) -> List[ast.FunctionCall]:
        """Calls to *fallible* functions in *root* whose result is never
        passed through a checker (``local:is-error``).

        With *exempt_tail*, calls in result (tail) position are treated as
        guarded: returning a fallible result unchecked is the convention's
        propagation idiom — the caller checks.
        """
        checkers = self.checker_functions()
        calls: List[ast.FunctionCall] = []
        guarded_ids: Set[int] = set()
        checked_vars: Set[str] = set()
        if exempt_tail:
            guarded_ids.update(id(node) for node in _result_roots(root))

        def visit(node) -> None:
            if isinstance(node, ast.FunctionCall):
                key = self.called(node)
                if key in fallible:
                    calls.append(node)
                if key in checkers:
                    for arg in node.args:
                        if isinstance(arg, ast.VarRef):
                            checked_vars.add(arg.name)
                        for inner in _result_roots(arg):
                            guarded_ids.add(id(inner))

        ast.walk(root, visit)

        def mark_guarded_lets(node) -> None:
            if isinstance(node, ast.FLWOR):
                for clause in node.clauses:
                    if (
                        isinstance(clause, ast.LetClause)
                        and clause.var in checked_vars
                    ):
                        for inner in _result_roots(clause.value):
                            guarded_ids.add(id(inner))

        ast.walk(root, mark_guarded_lets)
        return [call for call in calls if id(call) not in guarded_ids]


def _unwrap_parens(expr):
    """Strip no-op wrappers: a parenthesized expression parses as a
    step-less, anchor-less PathExpr."""
    while (
        isinstance(expr, ast.PathExpr)
        and expr.anchor is None
        and not expr.steps
        and expr.first is not None
    ):
        expr = expr.first
    return expr


def _result_roots(expr) -> List[object]:
    """The sub-expressions a value can *be* (through parens, conditionals
    and try/catch) — where a fallible call's result escapes unwrapped."""
    expr = _unwrap_parens(expr)
    if isinstance(expr, ast.IfExpr):
        roots = _result_roots(expr.then_branch)
        if expr.else_branch is not None:
            roots += _result_roots(expr.else_branch)
        return [expr] + roots
    if isinstance(expr, ast.TryCatch):
        return [expr] + _result_roots(expr.body) + _result_roots(expr.handler)
    if isinstance(expr, ast.FLWOR):
        return [expr] + _result_roots(expr.result)
    return [expr]


def _iter_flwors(analysis: ModuleAnalysis) -> Iterator[Tuple[str, ast.FLWOR]]:
    for owner, expr, _env in analysis.scoped():
        if isinstance(expr, ast.FLWOR):
            yield owner, expr


# ---------------------------------------------------------------------------
# XQL001 — trace() in dead-variable position
# ---------------------------------------------------------------------------


@rule(
    "XQL001",
    "dead-trace",
    "trace() bound to an unused variable: the 2004 dead-code optimizer "
    "silently deletes the binding and the trace with it",
    '"Simply adding the trace introduces a dead variable $dummy, which the '
    'Galax compiler helpfully optimizes away — along with the call to trace."',
)
def check_dead_trace(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    severity = "warning"
    config = analysis.config
    if config is not None and getattr(config, "optimize", False) and getattr(
        config, "trace_is_dead_code", False
    ):
        severity = "error"  # this engine *will* eat the probe
    for owner, flwor in _iter_flwors(analysis):
        for clause in flwor.clauses:
            fate = analysis.dead_lets.get(id(clause))
            # the 2004 pass deletes the binding and the trace it reaches
            if fate is None or fate.kept or not fate.traced:
                continue
            yield Diagnostic(
                code="XQL001",
                severity=severity,
                message=(
                    f"in {owner}: trace() is bound to unused variable "
                    f"${clause.var}; the 2004 dead-code pass deletes this "
                    f"binding and the trace output vanishes"
                ),
                line=clause.line or clause.value.line,
                column=clause.column or clause.value.column,
                rule="dead-trace",
                hint=f"insinuate the trace into live code: "
                f"let ${clause.var} := trace(..., <live value>)",
            )


# ---------------------------------------------------------------------------
# XQL002 — error-as-value result used without a check
# ---------------------------------------------------------------------------


@rule(
    "XQL002",
    "unchecked-error-value",
    "result of a fallible function (one that may return <error>) used "
    "without an is-error check",
    '"[The convention] turned nearly every function call into a half-dozen '
    'lines of code" — and forgetting those lines silently propagates an '
    "<error> element into the document.",
)
def check_unchecked_error_value(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    fallible, constructors = analysis.fallible_functions()
    flagged = fallible - constructors
    if not flagged:
        return
    checkers = analysis.checker_functions()
    if not checkers:
        # no is-error-style checker declared: the convention is not in
        # force in this module, so every "fallible" call would be noise.
        return
    for owner, root, _env in analysis.units():
        # tail propagation is fine inside functions; an unchecked fallible
        # result in the module body flows straight into the output.
        is_function = not owner.startswith(("<", "$"))
        for call in analysis._unguarded_calls(root, flagged, exempt_tail=is_function):
            yield Diagnostic(
                code="XQL002",
                severity="warning",
                message=(
                    f"in {owner}: result of fallible {call.name}() is used "
                    f"without an is-error check; an <error> element can flow "
                    f"into the output"
                ),
                line=call.line,
                column=call.column,
                rule="unchecked-error-value",
                hint="bind the result with let and test it: "
                "let $r := ... return if (local:is-error($r)) then ... else ...",
            )


# ---------------------------------------------------------------------------
# XQL003 — positional predicates the E1 table warns about
# ---------------------------------------------------------------------------


@rule(
    "XQL003",
    "positional-predicate",
    "positional predicate on a possibly-empty or non-singleton sequence: "
    "which item is selected depends on runtime flattening",
    "The E1 sequence-indexing table: ($X, $Y, $Z)[2] slides across X, Y and "
    'Z as parts flatten; Galax reported the surprises as "Index out of '
    'bounds, without any information of where".',
)
def check_positional_predicates(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    for owner, expr, env in analysis.scoped():
        if not isinstance(expr, ast.FilterExpr):
            continue
        base_card = analysis.analyzer.card(expr.base, env)
        for predicate in expr.predicates:
            n = positional_index(predicate, analysis.analyzer.functions)
            if n is None:
                continue
            if n < 1:
                yield Diagnostic(
                    code="XQL003",
                    severity="error",
                    message=(
                        f"in {owner}: positional predicate [{n}] can never "
                        f"select an item (positions are 1-based)"
                    ),
                    line=predicate.line or expr.line,
                    column=predicate.column or expr.column,
                    rule="positional-predicate",
                )
            elif base_card.hi is not None and n > base_card.hi:
                yield Diagnostic(
                    code="XQL003",
                    severity="error",
                    message=(
                        f"in {owner}: positional predicate [{n}] can never "
                        f"select an item — the base sequence has at most "
                        f"{base_card.hi} item(s)"
                    ),
                    line=predicate.line or expr.line,
                    column=predicate.column or expr.column,
                    rule="positional-predicate",
                )
            else:
                base = _unwrap_parens(expr.base)
                if isinstance(base, ast.SequenceExpr) and any(
                    not analysis.analyzer.card(item, env).is_exactly_one
                    for item in base.items
                ):
                    yield Diagnostic(
                        code="XQL003",
                        severity="warning",
                        message=(
                            f"in {owner}: [{n}] indexes a concatenation whose "
                            f"parts may be empty or plural; which item is at "
                            f"position {n} depends on runtime flattening (E1)"
                        ),
                        line=predicate.line or expr.line,
                        column=predicate.column or expr.column,
                        rule="positional-predicate",
                        hint="make each part exactly-one (wrap with "
                        "exactly-one()) or select from a single sub-sequence",
                    )


# ---------------------------------------------------------------------------
# XQL004 — attribute constructor folding surprises (E2)
# ---------------------------------------------------------------------------


def _attribute_content_findings(
    analysis: ModuleAnalysis,
    owner: str,
    element_name: str,
    parts: List[object],
    env: Env,
    static_attr_names: List[str],
    where,
) -> Iterator[Diagnostic]:
    analyzer = analysis.analyzer
    seen_names = list(static_attr_names)
    seen_content = False
    for part in parts:
        if isinstance(part, ast.DirectText):
            seen_content = True
            continue
        if not isinstance(part, ast.Expr):
            seen_content = True
            continue
        if analyzer.may_construct_attribute(part, env):
            line = getattr(part, "line", 0) or where.line
            column = getattr(part, "column", 0) or where.column
            if seen_content:
                yield Diagnostic(
                    code="XQL004",
                    severity="error",
                    message=(
                        f"in {owner}: attribute node in <{element_name}> "
                        f"content arrives after non-attribute content — this "
                        f"raises XQTY0024 at runtime (E2)"
                    ),
                    line=line,
                    column=column,
                    rule="attribute-folding",
                    spec_code="XQTY0024",
                )
            else:
                name = analyzer.static_attribute_name(part, env)
                if name is not None and name in seen_names:
                    yield Diagnostic(
                        code="XQL004",
                        severity="warning",
                        message=(
                            f"in {owner}: duplicate attribute name "
                            f"{name!r} on <{element_name}>: which value "
                            f'survives is "one of two results" (and the '
                            f"Galax bug kept both)"
                        ),
                        line=line,
                        column=column,
                        rule="attribute-folding",
                        spec_code="XQDY0025",
                    )
                if name is not None:
                    seen_names.append(name)
                if isinstance(where, ast.DirectElement):
                    yield Diagnostic(
                        code="XQL004",
                        severity="info",
                        message=(
                            f"in {owner}: enclosed expression at the start of "
                            f"<{element_name}> content may yield attribute "
                            f"nodes, which silently fold into "
                            f"<{element_name}>'s attributes (E2)"
                        ),
                        line=line,
                        column=column,
                        rule="attribute-folding",
                    )
        else:
            seen_content = True


@rule(
    "XQL004",
    "attribute-folding",
    "attribute constructor in element content: silently folds into the "
    "parent's attributes, duplicates one of two results, or errors after "
    "content",
    'The E2 attribute-folding table ("Treatment of Child Elements"): a '
    "leading attribute node becomes an attribute of the parent; duplicates "
    'give "one of two results" (Galax kept both); late attributes error.',
)
def check_attribute_folding(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    for owner, expr, env in analysis.scoped():
        if isinstance(expr, ast.DirectElement):
            static_names: List[str] = []
            for attr_name, _parts in expr.attributes:
                if attr_name in static_names:
                    yield Diagnostic(
                        code="XQL004",
                        severity="warning",
                        message=(
                            f"in {owner}: <{expr.name}> declares attribute "
                            f"{attr_name!r} twice"
                        ),
                        line=expr.line,
                        column=expr.column,
                        rule="attribute-folding",
                        spec_code="XQDY0025",
                    )
                static_names.append(attr_name)
            yield from _attribute_content_findings(
                analysis, owner, expr.name, expr.content, env, static_names, expr
            )
        elif isinstance(expr, ast.ComputedElement) and expr.content is not None:
            content = _unwrap_parens(expr.content)
            parts = (
                list(content.items)
                if isinstance(content, ast.SequenceExpr)
                else [content]
            )
            # computed constructors put attributes first by idiom; only the
            # attribute-after-content error is worth reporting there.
            for finding in _attribute_content_findings(
                analysis,
                owner,
                expr.name or "element",
                parts,
                env,
                [],
                expr,
            ):
                if finding.severity == "error":
                    yield finding


# ---------------------------------------------------------------------------
# XQL005 — unused declarations and unreachable branches
# ---------------------------------------------------------------------------


@rule(
    "XQL005",
    "dead-code",
    "unused function, unused variable, or unreachable branch",
    "What the optimizer silently removes, the author silently loses — the "
    "trace bug was exactly a dead-code pass disagreeing with the author "
    "about what mattered.",
)
def check_dead_code(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    module = analysis.module
    # unused user functions (only meaningful when a body exists to reach them)
    if analysis.has_body:
        called: Set[Optional[Key]] = set()

        def note_call(node) -> None:
            if isinstance(node, ast.FunctionCall):
                called.add(analysis.called(node))

        for _owner, root, _env in analysis.units():
            ast.walk(root, note_call)
        for key, function in analysis.analyzer.functions.items():
            if key not in called:
                yield Diagnostic(
                    code="XQL005",
                    severity="warning",
                    message=f"function {function.name}() is never called",
                    line=function.line,
                    column=function.column,
                    rule="dead-code",
                )
    # unused global variables
    referenced: Set[str] = set()

    def note_var(node) -> None:
        if isinstance(node, ast.VarRef):
            referenced.add(node.name)

    for _owner, root, _env in analysis.units():
        ast.walk(root, note_var)
    for declaration in module.variables:
        if declaration.name not in referenced:
            yield Diagnostic(
                code="XQL005",
                severity="warning",
                message=f"variable ${declaration.name} is declared but never used",
                line=declaration.line,
                column=declaration.column,
                rule="dead-code",
            )
    # unused let bindings (the optimizer removes them without a word)
    for owner, flwor in _iter_flwors(analysis):
        for clause in flwor.clauses:
            fate = analysis.dead_lets.get(id(clause))
            if fate is None or fate.traced:
                continue  # live, or XQL001's territory
            yield Diagnostic(
                code="XQL005",
                severity="info",
                message=(
                    f"in {owner}: let ${clause.var} is never used"
                    + (
                        " (kept only for its error() side effect)"
                        if fate.kept
                        else "; the optimizer removes it silently"
                    )
                ),
                line=clause.line or (clause.value.line if clause.value else 0),
                column=clause.column or (clause.value.column if clause.value else 0),
                rule="dead-code",
            )
    # unreachable branches
    for owner, expr, _env in analysis.scoped():
        if isinstance(expr, ast.IfExpr):
            condition = _const_bool(expr.condition, analysis.analyzer.functions)
            if condition is not None:
                dead = expr.else_branch if condition else expr.then_branch
                which = "else" if condition else "then"
                if dead is None:
                    continue
                yield Diagnostic(
                    code="XQL005",
                    severity="warning",
                    message=(
                        f"in {owner}: condition is constantly "
                        f"{str(condition).lower()}; the {which} "
                        f"branch is unreachable"
                    ),
                    line=getattr(dead, "line", 0) or expr.line,
                    column=getattr(dead, "column", 0) or expr.column,
                    rule="dead-code",
                )
        elif isinstance(expr, ast.FLWOR):
            for clause in expr.clauses:
                if (
                    isinstance(clause, ast.WhereClause)
                    and _const_bool(clause.condition, analysis.analyzer.functions) is False
                ):
                    yield Diagnostic(
                        code="XQL005",
                        severity="warning",
                        message=(
                            f"in {owner}: where clause is constantly false; "
                            f"the FLWOR always returns ()"
                        ),
                        line=clause.line or expr.line,
                        column=clause.column or expr.column,
                        rule="dead-code",
                    )


def _const_bool(expr, functions) -> Optional[bool]:
    """The statically known truth value of a condition, if any.

    XQuery has no boolean literals — ``true()``/``false()`` are function
    calls to the builtins, which this recognizes; a declaration of the same
    name shadows them.
    """
    expr = _unwrap_parens(expr)
    if isinstance(expr, ast.FunctionCall):
        callee = resolve_call(expr, functions)
        if callee.is_builtin("true", "false"):
            return callee.name == "true"
    return None


# ---------------------------------------------------------------------------
# XQL006 — variable shadowing in FLWOR clauses
# ---------------------------------------------------------------------------


@rule(
    "XQL006",
    "shadowed-variable",
    "a for/let/quantifier binding reuses a name already in scope",
    "The paper's syntax lesson: with $n-1 scanning as one variable name and "
    "bare names meaning node tests, silently rebinding $x is an easy way to "
    "read the wrong value with no diagnostic at all.",
)
def check_shadowing(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    global_names = {declaration.name for declaration in analysis.module.variables}
    for function in analysis.module.functions:
        scope = set(global_names)
        for param in function.params:
            if param.name in scope:
                yield Diagnostic(
                    code="XQL006",
                    severity="warning",
                    message=(
                        f"in {function.name}: parameter ${param.name} shadows "
                        f"the global variable of the same name"
                    ),
                    line=param.line or function.line,
                    column=param.column or function.column,
                    rule="shadowed-variable",
                )
            scope.add(param.name)
    for owner, expr, env in analysis.scoped():
        for site, scope in scopes(expr, env, analysis.analyzer):
            if isinstance(site, Binder) and site.name in scope:
                yield _shadow(owner, site.kind, site.name, site.line, site.column)


def _shadow(owner: str, kind: str, name: str, line: int, column: int) -> Diagnostic:
    return Diagnostic(
        code="XQL006",
        severity="warning",
        message=(
            f"in {owner}: {kind} binding ${name} shadows an in-scope "
            f"variable of the same name"
        ),
        line=line,
        column=column,
        rule="shadowed-variable",
    )


# ---------------------------------------------------------------------------
# XQL007 / XQL008 — the re-homed statictype checks
# ---------------------------------------------------------------------------

_SPEC_TO_XQL = {"XPST0008": "XQL007", "XPST0017": "XQL008"}


@rule(
    "XQL007",
    "undefined-variable",
    "reference to an undeclared variable (re-homed XPST0008)",
    'Under galax_diagnostics this surfaced as "Internal_Error: Variable '
    "'$glx:dot' not found.\" with no location at all.",
)
def check_undefined_variables(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    yield from _rehomed(analysis, "XQL007")


@rule(
    "XQL008",
    "unknown-function",
    "call to an unknown function or with the wrong arity (re-homed XPST0017)",
    "The paper's author had no analyzer at all: name and arity mistakes "
    "surfaced only when the query happened to execute the call.",
)
def check_unknown_functions(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    yield from _rehomed(analysis, "XQL008")


def _rehomed(analysis: ModuleAnalysis, code: str) -> Iterator[Diagnostic]:
    for issue in analysis.types.issues:
        mapped = _SPEC_TO_XQL.get(issue.code)
        if mapped != code:
            continue
        yield Diagnostic(
            code=mapped,
            severity="error",
            message=issue.message,
            line=issue.line,
            column=issue.column,
            rule=RULES[mapped].slug if mapped in RULES else "",
            spec_code=issue.code,
        )


# ---------------------------------------------------------------------------
# XQL009 — unconstrained cartesian products in FLWOR nests
# ---------------------------------------------------------------------------


def _flatten_flwor_nest(flwor: ast.FLWOR) -> Tuple[List[object], Set[int]]:
    """The nest's clause list with directly-nested result FLWORs merged in.

    ``for $a in X return for $b in Y return ...`` is the same nest as the
    two-clause spelling; merging lets the join check look across the seam.
    Returns ``(clauses, absorbed_flwor_ids)`` so the caller can skip the
    absorbed inner FLWORs when they come around on their own.
    """
    clauses: List[object] = list(flwor.clauses)
    absorbed: Set[int] = set()
    result = _unwrap_parens(flwor.result)
    while isinstance(result, ast.FLWOR):
        absorbed.add(id(result))
        clauses.extend(result.clauses)
        result = _unwrap_parens(result.result)
    return clauses, absorbed


@rule(
    "XQL009",
    "cartesian-product",
    "a later for clause neither references an earlier for binding nor is "
    "linked to one by a where clause: the nest multiplies out as an "
    "unconstrained cartesian product",
    "The nested-for join idiom the document-generation era leaned on was "
    '"preposterously inefficient" even WITH its equi-join predicate; drop '
    "the predicate and a 2004 engine silently evaluates |X|×|Y| tuples "
    "with no diagnostic at all.",
)
def check_cartesian_product(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    skip: Set[int] = set()
    for owner, flwor in _iter_flwors(analysis):
        if id(flwor) in skip:
            continue
        clauses, absorbed = _flatten_flwor_nest(flwor)
        skip |= absorbed
        # names whose value varies per-tuple: for bindings (and their
        # positional vars), plus lets derived from them.
        tainted: Set[str] = set()
        # surviving suspects: (clause, names-derived-from-it)
        candidates: List[Tuple[ast.ForClause, Set[str]]] = []
        saw_for = False
        for clause in clauses:
            if isinstance(clause, ast.ForClause):
                free = free_variables(clause.source)
                source = _unwrap_parens(clause.source)
                singleton = isinstance(source, ast.Literal)
                if saw_for and not (free & tainted) and not singleton:
                    names = {clause.var}
                    if clause.position_var:
                        names.add(clause.position_var)
                    candidates.append((clause, names))
                saw_for = True
                tainted.add(clause.var)
                if clause.position_var:
                    tainted.add(clause.position_var)
            elif isinstance(clause, ast.LetClause):
                value_free = free_variables(clause.value)
                if value_free & tainted:
                    tainted.add(clause.var)
                for _clause, names in candidates:
                    if value_free & names:
                        names.add(clause.var)
            elif isinstance(clause, ast.WhereClause):
                free = free_variables(clause.condition)
                # a where that mentions a suspect (or a let derived from
                # it) AND some other tuple-varying name is a join
                # predicate: the suspect is constrained after all.
                candidates = [
                    (clause_, names)
                    for clause_, names in candidates
                    if not (free & names and free & (tainted - names))
                ]
        for clause, names in candidates:
            yield Diagnostic(
                code="XQL009",
                severity="warning",
                message=(
                    f"in {owner}: for ${clause.var} is not joined to any "
                    f"earlier for binding — the nest multiplies into a "
                    f"cartesian product over its whole source"
                ),
                line=clause.line or clause.source.line,
                column=clause.column or clause.source.column,
                rule="cartesian-product",
                hint="constrain the source with a predicate on an earlier "
                "binding (e.g. [@ref eq $x/@id]) or add a where clause "
                "linking the two",
            )


# ---------------------------------------------------------------------------
# XQL010–XQL012 — schema-aware findings from the typed inference pass
# ---------------------------------------------------------------------------


def _typed_findings(analysis: ModuleAnalysis, code: str) -> Iterator[Diagnostic]:
    if analysis.analyzer.schema is None:
        return
    for finding in analysis.types.findings:
        if finding.code != code:
            continue
        yield Diagnostic(
            code=finding.code,
            severity=finding.severity,
            message=finding.message,
            line=finding.line,
            column=finding.column,
            rule=RULES[code].slug if code in RULES else "",
            spec_code=finding.spec_code,
        )


@rule(
    "XQL010",
    "dead-path",
    "path step that can never match any node the exporter produces",
    'The paper\'s queries "silently returned nothing" when a path was '
    "misspelled or aimed at the wrong level; the 2004 stack had no schema "
    "to check against, so empty output was the only diagnostic.",
)
def check_dead_paths(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    yield from _typed_findings(analysis, "XQL010")


@rule(
    "XQL011",
    "ill-typed-operands",
    "comparison or arithmetic whose operand types can only raise XPTY0004",
    "Running untyped meant XPTY0004 surfaced at runtime, mid-pipeline, "
    "with Galax's trademark absence of location information; the typed "
    "pass raises it at lint time instead.",
)
def check_ill_typed_operands(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    yield from _typed_findings(analysis, "XQL011")


@rule(
    "XQL012",
    "vacuous-predicate",
    "predicate provably always-false (or always-true) against the "
    "export's attribute domains",
    'The exporter omits @type for string-valued properties, so the natural '
    '[@type eq "string"] filter matches nothing, ever — exactly the class '
    "of silent empty result the paper complains about.",
)
def check_vacuous_predicates(analysis: ModuleAnalysis) -> Iterator[Diagnostic]:
    yield from _typed_findings(analysis, "XQL012")


def rule_catalog() -> List[Rule]:
    """All registered rules, ordered by code."""
    return [RULES[code] for code in sorted(RULES)]
