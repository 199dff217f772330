"""Parser for the XQuery subset: recursive descent for the statement forms,
precedence climbing for the operators.

Covers the fragment the paper's document generator exercised: the full
XPath 2.0 expression core (paths with axes, predicates, operators), FLWOR
with ``order by``, quantifiers, conditionals, direct and computed
constructors, and a prolog with ``declare function`` / ``declare
variable`` / ``declare namespace``.

The twelve binary and postfix operator levels are one loop over
:data:`OPERATORS` (:meth:`Parser._parse_operators`) instead of a function
per level.

The grammar is context sensitive where direct element constructors appear;
the parser switches the lexer into raw character scanning at ``<`` in
expression position (see :meth:`_direct_element`).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..xdm import ItemType, SequenceType, parse_number
from . import ast
from .errors import XQueryStaticError, extended_stack
from .lexer import Lexer
from .tokens import Token

#: node-kind-test names: in a step, ``text()`` is a kind test, never a call.
KIND_TESTS = {
    "node",
    "text",
    "comment",
    "element",
    "attribute",
    "document-node",
    "processing-instruction",
}

AXES = {
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "attribute",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
}

#: function names that may not be called as ordinary functions.
RESERVED_FUNCTION_NAMES = KIND_TESTS | {"if", "item", "typeswitch", "empty-sequence"}

#: keywords that can start a FLWOR, quantified, if, typeswitch or try
#: expression (each only when the right token follows).
STATEMENT_KEYWORDS = {"for", "let", "some", "every", "if", "typeswitch", "try"}

#: keywords that start a computed constructor (``element {...}`` ...).
CONSTRUCTOR_KEYWORDS = {"element", "attribute", "text", "comment", "document"}


# -- the operator table --------------------------------------------------------


def _binary(node_class):
    return lambda op, left, right: node_class(op=op, left=left, right=right)


def _comparison(style: str):
    return lambda op, left, right: ast.Comparison(op=op, style=style, left=left, right=right)


_BOOLEAN = _binary(ast.BooleanOp)
_ARITHMETIC = _binary(ast.Arithmetic)
_SET_OP = _binary(ast.SetOp)
_UNION = lambda op, left, right: ast.SetOp(op="union", left=left, right=right)
_GENERAL = _comparison("general")
_VALUE = _comparison("value")
_NODE = _comparison("node")

#: the binary and postfix operators, by token value: (token kind, level,
#: repeats, right operand, node).  Levels run from the loosest, ``or`` (1),
#: to the tightest, ``cast as`` (12); unary ``-``/``+`` and paths bind
#: tighter still.  A row that repeats is left-associative; one that does
#: not applies at most once at its level, so ``1 = 2 = 3`` and
#: ``1 to 2 to 3`` do not parse.  The right operand is an expression one
#: level tighter (``None``), or a keyword and the type parser after it.
#: ``node(op, left, right)`` builds the AST node, which takes the
#: operator's position.
OPERATORS = {
    "or": ("name", 1, True, None, _BOOLEAN),
    "and": ("name", 2, True, None, _BOOLEAN),
    "=": ("symbol", 3, False, None, _GENERAL),
    "!=": ("symbol", 3, False, None, _GENERAL),
    "<": ("symbol", 3, False, None, _GENERAL),
    "<=": ("symbol", 3, False, None, _GENERAL),
    ">": ("symbol", 3, False, None, _GENERAL),
    ">=": ("symbol", 3, False, None, _GENERAL),
    "eq": ("name", 3, False, None, _VALUE),
    "ne": ("name", 3, False, None, _VALUE),
    "lt": ("name", 3, False, None, _VALUE),
    "le": ("name", 3, False, None, _VALUE),
    "gt": ("name", 3, False, None, _VALUE),
    "ge": ("name", 3, False, None, _VALUE),
    "is": ("name", 3, False, None, _NODE),
    "<<": ("symbol", 3, False, None, _NODE),
    ">>": ("symbol", 3, False, None, _NODE),
    "to": ("name", 4, False, None, lambda op, left, right: ast.RangeExpr(start=left, end=right)),
    "+": ("symbol", 5, True, None, _ARITHMETIC),
    "-": ("symbol", 5, True, None, _ARITHMETIC),
    "*": ("symbol", 6, True, None, _ARITHMETIC),
    "div": ("name", 6, True, None, _ARITHMETIC),
    "idiv": ("name", 6, True, None, _ARITHMETIC),
    "mod": ("name", 6, True, None, _ARITHMETIC),
    "union": ("name", 7, True, None, _UNION),
    "|": ("symbol", 7, True, None, _UNION),
    "intersect": ("name", 8, True, None, _SET_OP),
    "except": ("name", 8, True, None, _SET_OP),
    "instance": (
        "name", 9, False, ("of", "_parse_sequence_type"),
        lambda op, left, right: ast.InstanceOf(operand=left, sequence_type=right),
    ),
    "treat": (
        "name", 10, False, ("as", "_parse_sequence_type"),
        lambda op, left, right: ast.TreatAs(operand=left, sequence_type=right),
    ),
    "castable": (
        "name", 11, False, ("as", "_parse_single_type"),
        lambda op, left, right: ast.CastableAs(
            operand=left, type_name=right[0], allow_empty=right[1]
        ),
    ),
    "cast": (
        "name", 12, False, ("as", "_parse_single_type"),
        lambda op, left, right: ast.CastAs(operand=left, type_name=right[0], allow_empty=right[1]),
    ),
}

LOOSEST = 1
TIGHTEST = 12
#: a minimum level above every row: just an operand, no operators.
OPERAND = TIGHTEST + 1

#: symbols that start an operand before any step: signs and root paths.
_PREFIXES = frozenset(("-", "+", "/", "//"))
_SEPARATORS = frozenset(("/", "//"))

#: token kinds that can start a step (or a filter expression's primary).
_STEP_KINDS = frozenset(("var", "integer", "decimal", "double", "string", "name"))
_STEP_SYMBOLS = frozenset(("(", ".", "..", "@", "*", "<", "$"))
#: symbols that are whole steps or start one: ``..``, ``@name``, ``*``.
_ABBREVIATED_STEPS = frozenset(("..", "@", "*"))

#: literal text runs inside direct constructors, up to the next character
#: that means something there.
_CONTENT_TEXT = re.compile(r"[^<{}&]+")
_ATTRIBUTE_TEXT = {'"': re.compile(r'[^"{}&]+'), "'": re.compile(r"[^'{}&]+")}


def parse_query(source: str) -> ast.Module:
    """Parse a complete query (prolog + body) into a :class:`Module`."""
    return Parser(source).parse_module()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (no prolog)."""
    module = Parser(source).parse_module()
    if module.functions or module.variables:
        raise XQueryStaticError("expected a bare expression, found a prolog")
    return module.body


class Parser:
    #: maximum expression nesting depth (each level costs several
    #: Python stack frames; extended_stack sizes the real stack to match).
    MAX_NESTING = 500

    def __init__(self, source: str):
        self.lexer = Lexer(source)
        self.source = source
        self.token: Token = self.lexer.next_token()
        self._nesting = 0

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> Token:
        previous = self.token
        self.token = self.lexer.next_token()
        return previous

    def expect_symbol(self, symbol: str) -> Token:
        token = self.token
        if token.value != symbol or token.kind != "symbol":
            raise self.error(f"expected {symbol!r}, found {self._describe()}")
        self.token = self.lexer.next_token()
        return token

    def expect_name(self, name: str) -> Token:
        token = self.token
        if token.value != name or token.kind != "name":
            raise self.error(f"expected keyword {name!r}, found {self._describe()}")
        self.token = self.lexer.next_token()
        return token

    def expect_kind(self, kind: str) -> Token:
        if self.token.kind != kind:
            raise self.error(f"expected {kind}, found {self._describe()}")
        return self.advance()

    def _describe(self) -> str:
        token = self.token
        if token.kind == "eof":
            return "end of query"
        return f"{token.kind} {token.value!r}"

    def error(self, message: str, token: Optional[Token] = None) -> XQueryStaticError:
        """A syntax error at *token*, by default the current one."""
        token = token or self.token
        return XQueryStaticError(message, line=token.line, column=token.column)

    def _starts_constructor(self, keyword: str) -> bool:
        """True if *keyword*, just passed, begins a computed constructor.

        ``element``/``attribute`` may be followed by a static name and then
        ``{``; the others take ``{`` directly.  Anything else starting with
        these keywords is a NameTest (an element really named "text"...).
        """
        first = self.token
        if keyword in ("element", "attribute"):
            # the token after next is scanned either way, as the grammar's
            # two-token lookahead always did.
            second = self.lexer.peek_token()
            if first.is_symbol("{"):
                return True
            return first.kind == "name" and second.is_symbol("{")
        return first.is_symbol("{")

    # -- module / prolog ------------------------------------------------------

    def parse_module(self) -> ast.Module:
        with extended_stack():
            module = ast.Module(source=self.source)
            self._parse_prolog(module)
            module.body = self.parse_expr()
            if self.token.kind != "eof":
                raise self.error(
                    f"unexpected {self._describe()} after end of query"
                )
            return module

    def _parse_prolog(self, module: ast.Module) -> None:
        while True:
            if self.token.is_name("xquery"):
                self.advance()
                self.expect_name("version")
                self.expect_kind("string")
                self.expect_symbol(";")
            elif self.token.is_name("declare"):
                self.advance()
                self._parse_declaration(module)
            else:
                return

    def _parse_declaration(self, module: ast.Module) -> None:
        if self.token.is_name("namespace"):
            self.advance()
            prefix = self.expect_kind("name").value
            self.expect_symbol("=")
            uri = self.expect_kind("string").value
            self.expect_symbol(";")
            module.namespaces.append((prefix, uri))
        elif self.token.is_name("variable"):
            self.advance()
            decl_token = self.expect_kind("var")
            declared_type = None
            if self.token.is_name("as"):
                self.advance()
                declared_type = self._parse_sequence_type()
            value: Optional[ast.Expr]
            if self.token.is_name("external"):
                self.advance()
                value = None
            else:
                self.expect_symbol(":=")
                value = self.parse_expr_single()
            self.expect_symbol(";")
            module.variables.append(
                ast.VariableDecl(
                    name=decl_token.value,
                    declared_type=declared_type,
                    value=value,
                    line=decl_token.line,
                    column=decl_token.column,
                )
            )
        elif self.token.is_name("function"):
            self.advance()
            module.functions.append(self._parse_function_decl())
        elif self.token.is_name("boundary-space", "option", "default"):
            # accepted and ignored: scan to the terminating semicolon.
            while not self.token.is_symbol(";"):
                if self.token.kind == "eof":
                    raise self.error("unterminated declaration")
                self.advance()
            self.advance()
        else:
            raise self.error(f"unknown declaration {self._describe()}")

    def _parse_function_decl(self) -> ast.FunctionDecl:
        name_token = self.expect_kind("name")
        if name_token.value in RESERVED_FUNCTION_NAMES:
            raise self.error(f"{name_token.value!r} is a reserved function name")
        self.expect_symbol("(")
        params: List[ast.Param] = []
        if not self.token.is_symbol(")"):
            while True:
                param_token = self.expect_kind("var")
                declared_type = None
                if self.token.is_name("as"):
                    self.advance()
                    declared_type = self._parse_sequence_type()
                params.append(
                    ast.Param(
                        param_token.value,
                        declared_type,
                        line=param_token.line,
                        column=param_token.column,
                    )
                )
                if self.token.is_symbol(","):
                    self.advance()
                    continue
                break
        self.expect_symbol(")")
        return_type = None
        if self.token.is_name("as"):
            self.advance()
            return_type = self._parse_sequence_type()
        self.expect_symbol("{")
        body = self.parse_expr()
        self.expect_symbol("}")
        self.expect_symbol(";")
        return ast.FunctionDecl(
            name=name_token.value,
            params=params,
            return_type=return_type,
            body=body,
            line=name_token.line,
            column=name_token.column,
        )

    # -- sequence types ---------------------------------------------------------

    def _parse_sequence_type(self) -> SequenceType:
        if self.token.is_name("empty-sequence"):
            self.advance()
            self.expect_symbol("(")
            self.expect_symbol(")")
            return SequenceType.empty()
        item_type = self._parse_item_type()
        occurrence = SequenceType.EXACTLY_ONE
        if self.token.is_symbol("?", "*", "+"):
            occurrence = self.advance().value
        return SequenceType(item_type, occurrence)

    def _parse_item_type(self) -> ItemType:
        if self.token.kind != "name":
            raise self.error(f"expected a type name, found {self._describe()}")
        name = self.token.value
        if name == "item":
            self.advance()
            self.expect_symbol("(")
            self.expect_symbol(")")
            return ItemType.item()
        if name in KIND_TESTS:
            self.advance()
            self.expect_symbol("(")
            inner_name = None
            if self.token.kind == "name":
                inner_name = self.advance().value
            elif self.token.is_symbol("*"):
                self.advance()
            self.expect_symbol(")")
            kind = None if name == "node" else name.replace("document-node", "document")
            return ItemType.node(kind=kind, name=inner_name)
        self.advance()
        if ":" not in name:
            name = f"xs:{name}"
        return ItemType.atomic(name)

    def _parse_single_type(self) -> Tuple[str, bool]:
        name = self.expect_kind("name").value
        if ":" not in name:
            name = f"xs:{name}"
        allow_empty = False
        if self.token.is_symbol("?"):
            allow_empty = True
            self.advance()
        return name, allow_empty

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        first_token = self.token
        first = self.parse_expr_single()
        token = self.token
        if token.value != "," or token.kind != "symbol":
            return first
        items = [first]
        while token.value == "," and token.kind == "symbol":
            self.advance()
            items.append(self.parse_expr_single())
            token = self.token
        return ast.at(ast.SequenceExpr(items=items), first_token)

    def parse_expr_single(self) -> ast.Expr:
        self._nesting += 1
        try:
            if self._nesting > self.MAX_NESTING:
                raise self.error(
                    f"expression nesting exceeds {self.MAX_NESTING} levels"
                )
            token = self.token
            if token.value in STATEMENT_KEYWORDS and token.kind == "name":
                value = token.value
                if value in ("for", "let") and self.lexer.peek_token().kind == "var":
                    return self._parse_flwor()
                if value in ("some", "every") and self.lexer.peek_token().kind == "var":
                    return self._parse_quantified()
                if value == "if" and self.lexer.peek_token().is_symbol("("):
                    return self._parse_if()
                if value == "typeswitch" and self.lexer.peek_token().is_symbol("("):
                    return self._parse_typeswitch()
                if value == "try" and self.lexer.peek_token().is_symbol("{"):
                    return self._parse_try_catch()
            return self._parse_operators(LOOSEST)
        finally:
            self._nesting -= 1

    def _parse_flwor(self) -> ast.Expr:
        start = self.token
        clauses: List[object] = []
        while self.token.is_name("for", "let") and self.lexer.peek_token().kind == "var":
            keyword = self.advance().value
            while True:
                var_token = self.expect_kind("var")
                if keyword == "for":
                    position_var = None
                    if self.token.is_name("at"):
                        self.advance()
                        position_var = self.expect_kind("var").value
                    self.expect_name("in")
                    source = self.parse_expr_single()
                    clauses.append(
                        ast.ForClause(
                            var_token.value,
                            position_var,
                            source,
                            line=var_token.line,
                            column=var_token.column,
                        )
                    )
                else:
                    declared_type = None
                    if self.token.is_name("as"):
                        self.advance()
                        declared_type = self._parse_sequence_type()
                    self.expect_symbol(":=")
                    value = self.parse_expr_single()
                    clauses.append(
                        ast.LetClause(
                            var_token.value,
                            value,
                            declared_type,
                            line=var_token.line,
                            column=var_token.column,
                        )
                    )
                if self.token.is_symbol(","):
                    self.advance()
                    continue
                break
        if self.token.is_name("where"):
            where_token = self.advance()
            clauses.append(
                ast.WhereClause(
                    self.parse_expr_single(),
                    line=where_token.line,
                    column=where_token.column,
                )
            )
        if self.token.is_name("stable", "order"):
            stable = False
            if self.token.is_name("stable"):
                stable = True
                self.advance()
            self.expect_name("order")
            self.expect_name("by")
            specs = [self._parse_order_spec()]
            while self.token.is_symbol(","):
                self.advance()
                specs.append(self._parse_order_spec())
            clauses.append(ast.OrderByClause(specs, stable))
        self.expect_name("return")
        result = self.parse_expr_single()
        return ast.at(ast.FLWOR(clauses=clauses, result=result), start)

    def _parse_order_spec(self) -> ast.OrderSpec:
        key = self.parse_expr_single()
        descending = False
        if self.token.is_name("ascending"):
            self.advance()
        elif self.token.is_name("descending"):
            descending = True
            self.advance()
        empty_least = True
        if self.token.is_name("empty"):
            self.advance()
            if self.token.is_name("greatest"):
                empty_least = False
                self.advance()
            else:
                self.expect_name("least")
        return ast.OrderSpec(key, descending, empty_least)

    def _parse_quantified(self) -> ast.Expr:
        start = self.advance()  # some | every
        bindings: List[Tuple[str, ast.Expr]] = []
        while True:
            var_token = self.expect_kind("var")
            self.expect_name("in")
            source = self.parse_expr_single()
            bindings.append((var_token.value, source))
            if self.token.is_symbol(","):
                self.advance()
                continue
            break
        self.expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.at(
            ast.Quantified(
                quantifier=start.value, bindings=bindings, satisfies=satisfies
            ),
            start,
        )

    def _parse_try_catch(self) -> ast.Expr:
        start = self.expect_name("try")
        self.expect_symbol("{")
        body = self.parse_expr()
        self.expect_symbol("}")
        self.expect_name("catch")
        catch_var = None
        if self.token.kind == "var":
            catch_var = self.advance().value
        self.expect_symbol("{")
        handler = self.parse_expr()
        self.expect_symbol("}")
        return ast.at(
            ast.TryCatch(body=body, catch_var=catch_var, handler=handler), start
        )

    def _parse_typeswitch(self) -> ast.Expr:
        start = self.expect_name("typeswitch")
        self.expect_symbol("(")
        operand = self.parse_expr()
        self.expect_symbol(")")
        cases: List[ast.CaseClause] = []
        while self.token.is_name("case"):
            self.advance()
            var = None
            if self.token.kind == "var":
                var = self.advance().value
                self.expect_name("as")
            sequence_type = self._parse_sequence_type()
            self.expect_name("return")
            result = self.parse_expr_single()
            cases.append(ast.CaseClause(sequence_type, var, result))
        if not cases:
            raise self.error("typeswitch requires at least one case clause")
        self.expect_name("default")
        default_var = None
        if self.token.kind == "var":
            default_var = self.advance().value
        self.expect_name("return")
        default = self.parse_expr_single()
        return ast.at(
            ast.Typeswitch(
                operand=operand,
                cases=cases,
                default_var=default_var,
                default=default,
            ),
            start,
        )

    def _parse_if(self) -> ast.Expr:
        start = self.expect_name("if")
        self.expect_symbol("(")
        condition = self.parse_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then_branch = self.parse_expr_single()
        self.expect_name("else")
        else_branch = self.parse_expr_single()
        return ast.at(
            ast.IfExpr(
                condition=condition,
                then_branch=then_branch,
                else_branch=else_branch,
            ),
            start,
        )

    # -- operators: precedence climbing over OPERATORS -------------------------

    def _parse_operators(self, min_level: int) -> ast.Expr:
        """An operand followed by operators binding at *min_level* or tighter.

        Each right operand is parsed one level tighter than its operator, so
        tighter operators group first.  After a row applies, only operators
        at its level (if it repeats) or looser may follow — exactly what the
        one-function-per-level chain accepted.
        """
        token = self.token
        if token.value in _PREFIXES and token.kind == "symbol":
            left = self._parse_prefixed()
        else:
            # a relative path, or the one step or primary it reduces to
            left = self._parse_step_expr()
            after = self.token
            if after.value in _SEPARATORS and after.kind == "symbol":
                left = ast.PathExpr(
                    first=left, steps=self._parse_steps(), line=token.line, column=token.column
                )
            elif type(left) is ast.AxisStep:
                left = ast.PathExpr(first=left, steps=[], line=token.line, column=token.column)
        max_level = TIGHTEST
        while True:
            token = self.token
            row = OPERATORS.get(token.value)
            if row is None:
                return left
            kind, level, repeats, right, node = row
            if kind != token.kind or not min_level <= level <= max_level:
                return left
            self.token = self.lexer.next_token()
            if right is None:
                operand = self._parse_operators(level + 1)
            else:
                keyword, parse_type = right
                self.expect_name(keyword)
                operand = getattr(self, parse_type)()
            left = node(token.value, left, operand)
            left.line = token.line
            left.column = token.column
            max_level = level if repeats else level - 1

    def _parse_prefixed(self) -> ast.Expr:
        """Unary ``-``/``+`` signs before an operand, or a path from the root."""
        token = self.token
        if token.value == "/" or token.value == "//":
            self.advance()
            if token.value == "/" and not self._starts_step():
                return ast.PathExpr(
                    anchor="/", first=None, steps=[], line=token.line, column=token.column
                )
            first = self._parse_step_expr()
            return ast.PathExpr(
                anchor=token.value,
                first=first,
                steps=self._parse_steps(),
                line=token.line,
                column=token.column,
            )
        signs = []
        while token.kind == "symbol" and (token.value == "-" or token.value == "+"):
            signs.append(self.advance())
            token = self.token
        operand = self._parse_operators(OPERAND)
        for sign in reversed(signs):
            if sign.value == "-":
                operand = ast.at(ast.Unary(op="-", operand=operand), sign)
        return operand

    # -- paths ---------------------------------------------------------------------

    def _parse_steps(self) -> List[Tuple[str, ast.Expr]]:
        """The ``/step`` and ``//step`` continuations of a path."""
        steps: List[Tuple[str, ast.Expr]] = []
        token = self.token
        while token.value in _SEPARATORS and token.kind == "symbol":
            self.advance()
            steps.append((token.value, self._parse_step_expr()))
            token = self.token
        return steps

    def _starts_step(self) -> bool:
        token = self.token
        if token.kind in _STEP_KINDS:
            return True
        return token.kind == "symbol" and token.value in _STEP_SYMBOLS

    def _parse_step_expr(self) -> ast.Expr:
        """One step: an axis step, or a primary with optional predicates."""
        token = self.token
        kind = token.kind
        if kind == "var":
            self.token = self.lexer.next_token()
            base = ast.VarRef(name=token.value, line=token.line, column=token.column)
        elif kind == "name":
            # what a name means depends on the token after it
            value = token.value
            self.token = following = self.lexer.next_token()
            after = following.value if following.kind == "symbol" else None
            # explicit axis: axisname::test
            if after == "::" and value in AXES:
                self.token = self.lexer.next_token()
                return self._step(value, self._parse_node_test(), token)
            # kind test as a child step: text(), node(), element(name)...
            if after == "(" and value in KIND_TESTS:
                axis = "attribute" if value == "attribute" else "child"
                return self._step(axis, self._node_test(value), token)
            # computed constructors are primaries, not name tests
            if value in CONSTRUCTOR_KEYWORDS and self._starts_constructor(value):
                base = self._computed_constructor(token)
            # name test (child axis), unless it is a function call
            elif after != "(":
                return self._step("child", ast.NodeTest("name", value), token)
            elif value in RESERVED_FUNCTION_NAMES:
                raise self.error(f"unexpected name {value!r} in expression position", token)
            else:
                base = self._function_call(token)
        elif kind == "symbol":
            value = token.value
            if value in _ABBREVIATED_STEPS:
                self.token = self.lexer.next_token()
                if value == "..":
                    return self._step("parent", ast.NodeTest("node"), token)
                if value == "@":
                    return self._step("attribute", self._parse_node_test(), token)
                return self._step("child", ast.NodeTest("wildcard", "*"), token)
            base = self._parse_primary()
        elif kind == "string":
            self.token = self.lexer.next_token()
            base = ast.Literal(value=token.value, line=token.line, column=token.column)
        elif kind in ("integer", "decimal", "double"):
            self.token = self.lexer.next_token()
            base = ast.Literal(
                value=parse_number(token.value), line=token.line, column=token.column
            )
        else:
            raise self.error(f"expected an expression, found {self._describe()}")
        # a primary, or a filter expression if predicates follow
        after = self.token
        if after.value != "[" or after.kind != "symbol":
            return base
        return ast.FilterExpr(
            base=base,
            predicates=self._parse_predicates(),
            line=token.line,
            column=token.column,
        )

    def _step(self, axis: str, test: ast.NodeTest, token: Token) -> ast.AxisStep:
        return ast.AxisStep(
            axis=axis,
            test=test,
            predicates=self._parse_predicates(),
            line=token.line,
            column=token.column,
        )

    def _parse_node_test(self) -> ast.NodeTest:
        if self.token.is_symbol("*"):
            self.advance()
            return ast.NodeTest("wildcard", "*")
        return self._node_test(self.expect_kind("name").value)

    def _node_test(self, name: str) -> ast.NodeTest:
        """The node test *name* begins; the parser has just passed it."""
        if name in KIND_TESTS and self.token.is_symbol("("):
            self.advance()
            inner = None
            if self.token.kind in ("name", "string"):
                inner = self.advance().value
            elif self.token.is_symbol("*"):
                self.advance()
            self.expect_symbol(")")
            return ast.NodeTest(name, inner)
        return ast.NodeTest("name", name)

    def _parse_predicates(self) -> List[ast.Expr]:
        predicates: List[ast.Expr] = []
        token = self.token
        while token.value == "[" and token.kind == "symbol":
            self.advance()
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
            token = self.token
        return predicates

    # -- primaries --------------------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        """A primary that starts with a symbol: ``(...)``, ``.``, ``<...>``."""
        token = self.token
        if token.value == "(":
            self.advance()
            if self.token.is_symbol(")"):
                self.advance()
                return ast.at(ast.EmptySequence(), token)
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.value == ".":
            self.advance()
            return ast.at(ast.ContextItem(), token)
        if token.value == "<":
            return self._direct_constructor()
        raise self.error(f"expected an expression, found {self._describe()}")

    def _function_call(self, name: Token) -> ast.Expr:
        """The call *name* begins; the current token is its ``(``."""
        self.token = self.lexer.next_token()
        args: List[ast.Expr] = []
        token = self.token
        if token.value != ")" or token.kind != "symbol":
            args.append(self.parse_expr_single())
            token = self.token
            while token.value == "," and token.kind == "symbol":
                self.token = self.lexer.next_token()
                args.append(self.parse_expr_single())
                token = self.token
        self.expect_symbol(")")
        return ast.FunctionCall(
            name=name.value, args=args, line=name.line, column=name.column
        )

    def _computed_constructor(self, token: Token) -> ast.Expr:
        """The constructor keyword *token* begins; the parser has passed it."""
        kind = token.value
        name = None
        name_expr = None
        if kind in ("element", "attribute"):
            if self.token.kind == "name":
                name = self.advance().value
            else:
                self.expect_symbol("{")
                name_expr = self.parse_expr()
                self.expect_symbol("}")
        self.expect_symbol("{")
        content = None
        if not self.token.is_symbol("}"):
            content = self.parse_expr()
        self.expect_symbol("}")
        if kind == "element":
            return ast.at(
                ast.ComputedElement(name_expr=name_expr, name=name, content=content),
                token,
            )
        if kind == "attribute":
            return ast.at(
                ast.ComputedAttribute(name_expr=name_expr, name=name, content=content),
                token,
            )
        if kind == "text":
            return ast.at(ast.ComputedText(content=content), token)
        if kind == "comment":
            return ast.at(ast.ComputedComment(content=content), token)
        return ast.at(ast.ComputedDocument(content=content), token)

    # -- direct constructors (raw XML-mode scanning) -------------------------------

    def _direct_constructor(self) -> ast.Expr:
        token = self.token  # the "<" symbol token
        lexer = self.lexer
        lexer.pos = token.pos  # rewind to the "<" and scan as XML
        if lexer.at("<!--"):
            lexer.take("<!--")
            end = lexer.text.find("-->", lexer.pos)
            if end < 0:
                raise lexer.error("unterminated XML comment in constructor")
            text = lexer.text[lexer.pos : end]
            lexer.pos = end + 3
            self.token = lexer.next_token()
            return ast.at(ast.DirectComment(text=text), token)
        element = self._direct_element()
        self.token = lexer.next_token()
        return ast.at(element, token)

    def _direct_element(self) -> ast.DirectElement:
        """Scan one direct element; the lexer cursor sits at its ``<``."""
        lexer = self.lexer
        line, column = lexer.location()
        lexer.take("<")
        name = lexer.scan_xml_name()
        element = ast.DirectElement(name=name, line=line, column=column)
        while True:
            lexer.skip_xml_space()
            if lexer.at("/>"):
                lexer.take("/>")
                return element
            if lexer.at(">"):
                lexer.take(">")
                break
            attr_name = lexer.scan_xml_name()
            lexer.skip_xml_space()
            lexer.take("=")
            lexer.skip_xml_space()
            element.attributes.append((attr_name, self._attribute_value()))
        element.content = self._element_content(name)
        return element

    def _attribute_value(self) -> List[object]:
        """Scan a quoted attribute value template: text and ``{expr}`` parts."""
        lexer = self.lexer
        text = lexer.text
        quote = lexer.take_char()
        if quote == "":
            # the input ended where the value should start; the cursor
            # has stepped one past the end, and the error says so.
            raise lexer.error("unterminated attribute value")
        if quote not in "\"'":
            raise lexer.error("expected a quoted attribute value")
        run = _ATTRIBUTE_TEXT[quote].match
        parts: List[object] = []
        buffer: List[str] = []

        def flush() -> None:
            if buffer:
                parts.append("".join(buffer))
                buffer.clear()

        while True:
            literal = run(text, lexer.pos)
            if literal is not None:
                buffer.append(literal.group())
                lexer.pos = literal.end()
            char = lexer.peek_char()
            if char == "":
                raise lexer.error("unterminated attribute value")
            if char == quote:
                lexer.take_char()
                if lexer.peek_char() == quote:  # doubled quote escape
                    buffer.append(lexer.take_char())
                    continue
                flush()
                return parts
            if lexer.at("{{"):
                lexer.take("{{")
                buffer.append("{")
                continue
            if lexer.at("}}"):
                lexer.take("}}")
                buffer.append("}")
                continue
            if char == "{":
                flush()
                parts.append(self._enclosed_expr())
                continue
            if char == "&":
                buffer.append(lexer.scan_entity())
                continue
            buffer.append(lexer.take_char())

    def _element_content(self, element_name: str) -> List[object]:
        """Scan element content until the matching end tag."""
        lexer = self.lexer
        text = lexer.text
        parts: List[object] = []
        buffer: List[str] = []
        buffer_has_entity = False

        def flush() -> None:
            nonlocal buffer_has_entity
            if buffer:
                content = "".join(buffer)
                # boundary-space strip: drop whitespace-only literal runs
                # unless they contain character references.
                if content.strip() or buffer_has_entity:
                    parts.append(ast.DirectText(text=content))
                buffer.clear()
            buffer_has_entity = False

        while True:
            literal = _CONTENT_TEXT.match(text, lexer.pos)
            if literal is not None:
                buffer.append(literal.group())
                lexer.pos = literal.end()
            if lexer.at("</"):
                flush()
                lexer.take("</")
                end_name = lexer.scan_xml_name()
                lexer.skip_xml_space()
                lexer.take(">")
                if end_name != element_name:
                    raise lexer.error(
                        f"mismatched tags: <{element_name}> closed by </{end_name}>"
                    )
                return parts
            char = lexer.peek_char()
            if char == "":
                raise lexer.error(f"unclosed element <{element_name}>")
            if lexer.at("<!--"):
                flush()
                line, column = lexer.location()
                lexer.take("<!--")
                end = text.find("-->", lexer.pos)
                if end < 0:
                    raise lexer.error("unterminated XML comment")
                parts.append(
                    ast.DirectComment(
                        text=text[lexer.pos : end], line=line, column=column
                    )
                )
                lexer.pos = end + 3
                continue
            if lexer.at("<?"):
                flush()
                lexer.take("<?")
                target = lexer.scan_xml_name()
                end = text.find("?>", lexer.pos)
                if end < 0:
                    raise lexer.error("unterminated processing instruction")
                parts.append(
                    ast.DirectPI(target=target, text=text[lexer.pos : end].strip())
                )
                lexer.pos = end + 2
                continue
            if lexer.at("<![CDATA["):
                lexer.take("<![CDATA[")
                end = text.find("]]>", lexer.pos)
                if end < 0:
                    raise lexer.error("unterminated CDATA section")
                buffer.append(text[lexer.pos : end])
                buffer_has_entity = True  # CDATA whitespace is significant
                lexer.pos = end + 3
                continue
            if char == "<":
                flush()
                parts.append(self._direct_element())
                continue
            if lexer.at("{{"):
                lexer.take("{{")
                buffer.append("{")
                continue
            if lexer.at("}}"):
                lexer.take("}}")
                buffer.append("}")
                continue
            if char == "{":
                flush()
                parts.append(self._enclosed_expr())
                continue
            if char == "&":
                buffer.append(lexer.scan_entity())
                buffer_has_entity = True
                continue
            buffer.append(lexer.take_char())

    def _enclosed_expr(self) -> ast.Expr:
        """Parse ``{ Expr }`` from raw mode, returning to raw mode after."""
        lexer = self.lexer
        lexer.take("{")
        self.token = lexer.next_token()
        expr = self.parse_expr()
        if not self.token.is_symbol("}"):
            raise self.error(
                f"expected '}}' to close enclosed expression, found {self._describe()}"
            )
        # The lexer cursor now sits just past the '}'; raw scanning resumes.
        return expr
