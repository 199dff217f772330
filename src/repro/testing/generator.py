"""Seeded, grammar-driven generator for the XQuery subset.

Programs are built as :class:`GenExpr` trees — each node one grammar
production with a mix of literal text and child expressions — so the same
structure serves three consumers:

* ``render()`` produces the source text the engines run;
* the metamorphic rewriter re-renders eligible shapes in equivalent forms;
* the shrinker replaces subtrees with atoms and drops list elements
  without ever re-parsing source text.

Production choice is weighted and fuel-bounded: every draw burns fuel,
and an empty tank forces a leaf, so generation always terminates and the
program size follows the fuel budget.  The generator tracks the variable
environment (``for``/``let``/quantifier/function-parameter bindings, each
with a rough value flavor) so references are almost always bound — with a
deliberate, rare production for the unbound-variable error the paper's
debugging chapter spends so much time on.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: bumped whenever the grammar changes shape enough that a recorded
#: (seed, version) pair would regenerate a different program.  Stored in
#: corpus provenance headers.  Version 3 added :meth:`ProgramGenerator.join_program`
#: and version 4 :meth:`ProgramGenerator.predicate_program`, which a fuzz
#: campaign draws for a share of its xquery programs.
GENERATOR_VERSION = 4

Part = Union[str, "GenExpr"]


class GenExpr:
    """One grammar production: literal text interleaved with children.

    ``flavor`` is a rough value category ("numeric", "string", "boolean",
    "node", "sequence", "any") used to keep most programs well-typed;
    ``pure`` means evaluation has no observable effect (no ``fn:trace``,
    no ``fn:error``); ``creates_nodes`` marks constructor-containing
    subtrees, which the let-inlining rewrite must not duplicate (node
    identity is observable through ``is``/``<<``).
    """

    __slots__ = ("kind", "parts", "flavor", "pure", "creates_nodes")

    def __init__(
        self,
        kind: str,
        parts: Sequence[Part],
        flavor: str = "any",
        pure: Optional[bool] = None,
        creates_nodes: Optional[bool] = None,
    ):
        self.kind = kind
        self.parts: List[Part] = list(parts)
        self.flavor = flavor
        children = [p for p in self.parts if isinstance(p, GenExpr)]
        self.pure = all(c.pure for c in children) if pure is None else pure
        self.creates_nodes = (
            any(c.creates_nodes for c in children)
            if creates_nodes is None
            else creates_nodes
        )

    def render(self) -> str:
        return "".join(
            part if isinstance(part, str) else part.render() for part in self.parts
        )

    def children(self) -> List["GenExpr"]:
        return [p for p in self.parts if isinstance(p, GenExpr)]

    def walk(self, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], "GenExpr"]]:
        """Yield ``(path, node)`` pairs; a path indexes into ``parts``."""
        yield path, self
        for index, part in enumerate(self.parts):
            if isinstance(part, GenExpr):
                yield from part.walk(path + (index,))

    def replace(self, path: Tuple[int, ...], new: "GenExpr") -> "GenExpr":
        """A copy of this tree with the node at ``path`` swapped for ``new``."""
        if not path:
            return new
        parts = list(self.parts)
        child = parts[path[0]]
        assert isinstance(child, GenExpr), "path must address a child expression"
        parts[path[0]] = child.replace(path[1:], new)
        return GenExpr(
            self.kind,
            parts,
            flavor=self.flavor,
            pure=None,
            creates_nodes=None,
        )

    def without_part(self, path: Tuple[int, ...], index: int) -> "GenExpr":
        """A copy with ``parts[index]`` of the node at ``path`` removed."""
        if not path:
            parts = self.parts[:index] + self.parts[index + 1 :]
            return GenExpr(self.kind, parts, flavor=self.flavor)
        parts = list(self.parts)
        child = parts[path[0]]
        assert isinstance(child, GenExpr)
        parts[path[0]] = child.without_part(path[1:], index)
        return GenExpr(self.kind, parts, flavor=self.flavor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GenExpr {self.kind} {self.render()!r}>"


def atom(text: str, flavor: str = "any") -> GenExpr:
    """A literal leaf (also the shrinker's replacement vocabulary)."""
    return GenExpr("atom", [text], flavor=flavor)


#: binding flavors the environment tracks.
_ITEM, _SEQ, _NODE = "item", "sequence", "node"


class _Binding:
    __slots__ = ("name", "kind", "flavor")

    def __init__(self, name: str, kind: str, flavor: str):
        self.name = name
        self.kind = kind  # _ITEM / _SEQ / _NODE
        self.flavor = flavor  # numeric / string / node / any


class ProgramGenerator:
    """Draws weighted productions from the grammar under a fuel budget.

    ``coverage`` maps production name → times drawn, across every program
    this generator has produced; E17 reports it as grammar coverage.
    """

    #: every production the generator can draw, for coverage accounting.
    PRODUCTIONS = (
        "int",
        "decimal",
        "string",
        "range",
        "sequence",
        "empty-sequence",
        "arith",
        "unary-minus",
        "general-compare",
        "value-compare",
        "node-compare",
        "logic",
        "not",
        "if",
        "flwor",
        "flwor-where",
        "flwor-order",
        "flwor-at",
        "flwor-join",
        "predicate-rule",
        "let",
        "quantified",
        "predicate",
        "positional-predicate",
        "typeswitch",
        "try-catch",
        "direct-element",
        "computed-element",
        "computed-attribute",
        "duplicate-attributes",
        "text-constructor",
        "comment-constructor",
        "document-constructor",
        "enclosed-multi",
        "path-child",
        "path-descendant",
        "path-attribute",
        "path-axis",
        "path-kind-test",
        "numeric-builtin",
        "string-builtin",
        "sequence-builtin",
        "aggregate",
        "cast",
        "castable",
        "instance-of",
        "treat-as",
        "trace",
        "error-as-value",
        "user-function",
        "recursive-function",
        "global-variable",
        "var-ref",
        "err-unbound-variable",
        "err-type-clash",
        "err-div-zero",
        "err-attr-after-content",
        "err-user-error",
        "err-bad-cast",
        "err-cardinality",
        "fn-doc",
        "fn-collection",
        "ft-search",
        "ft-score",
        "ft-kwic",
    )

    def __init__(
        self,
        rng: random.Random,
        max_fuel: int = 14,
        coverage: Optional[Dict[str, int]] = None,
    ):
        self.rng = rng
        self.max_fuel = max_fuel
        self.coverage: Dict[str, int] = coverage if coverage is not None else {}
        self._name_counter = 0
        # per-program state, reset by program():
        self._functions: List[Tuple[str, int]] = []
        self._trace_counter = 0

    # -- bookkeeping ----------------------------------------------------------

    def _hit(self, production: str) -> None:
        self.coverage[production] = self.coverage.get(production, 0) + 1

    def _fresh(self, prefix: str = "v") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def _choice(self, weighted: List[Tuple[str, int]]) -> str:
        names = [name for name, _ in weighted]
        weights = [weight for _, weight in weighted]
        return self.rng.choices(names, weights=weights, k=1)[0]

    # -- program --------------------------------------------------------------

    def program(self) -> GenExpr:
        """A complete program: optional declarations plus a body expression.

        Top-level parts render one per line, so shrunk reproducers measure
        naturally in lines.
        """
        return self._declared(lambda env: self._expr(env, self.max_fuel))

    def join_program(self) -> GenExpr:
        """A complete program whose body is the ``flwor-join`` shape, after
        the declarations its probe may call."""
        return self._declared(lambda env: self._flwor_join())

    def predicate_program(self) -> GenExpr:
        """A complete program whose body filters one step over a tree
        literal through the ``predicate-rule`` shapes, after the
        declarations a right side may call."""
        return self._declared(lambda env: self._predicate_step())

    def _declared(self, body_of) -> GenExpr:
        self._functions = []
        self._trace_counter = 0
        env: List[_Binding] = []
        parts: List[Part] = []
        for _ in range(self.rng.randrange(3)):
            parts.append(self._declaration(env))
            parts.append("\n")
        body = body_of(env)
        parts.append(body)
        return GenExpr("program", parts, flavor=body.flavor)

    def collection_program(
        self,
        uris: Sequence[str],
        collections: Sequence[str],
        phrases: Sequence[str],
    ) -> GenExpr:
        """A program over a document store's corpus (the "collection" kind).

        Draws uris, collection prefixes, and search phrases from the
        supplied corpus so most programs hit real documents; a rare draw
        of a uri that is *not* in the corpus exercises the ``FODC0002``
        path, which every backend must classify identically (no
        allowlisting for collection divergences).
        """
        self._functions = []
        self._trace_counter = 0

        def lit(value: str) -> str:
            return '"' + value.replace('"', '""') + '"'

        def a_uri() -> str:
            if uris and self.rng.random() < 0.92:
                return self.rng.choice(list(uris))
            return f"missing/u{self.rng.randrange(0, 100)}.xml"

        def a_coll() -> str:
            return self.rng.choice(list(collections) or [""])

        def a_phrase() -> str:
            return self.rng.choice(list(phrases) or ["alpha"])

        production = self._choice(
            [
                ("fn-doc", 18),
                ("fn-collection", 22),
                ("ft-search", 30),
                ("ft-score", 14),
                ("ft-kwic", 16),
            ]
        )
        self._hit(production)
        if production == "fn-doc":
            uri = a_uri()
            shape = self.rng.random()
            if shape < 0.4:
                body = f"fn:doc({lit(uri)})"
            elif shape < 0.7:
                body = f"count(fn:doc({lit(uri)})//*)"
            else:
                body = (
                    f"if (fn:doc-available({lit(uri)})) "
                    f"then string-length(string(fn:doc({lit(uri)}))) else -1"
                )
            return GenExpr("fn-doc", [body], flavor="any")
        if production == "fn-collection":
            coll = a_coll()
            shape = self.rng.random()
            if shape < 0.35:
                body = f"count(fn:collection({lit(coll)}))"
            elif shape < 0.7:
                body = (
                    f"for $d in fn:collection({lit(coll)}) "
                    f"return element member {{ attribute uri {{ ft:uri($d) }} }}"
                )
            else:
                body = (
                    f"sum(for $d in fn:collection({lit(coll)}) "
                    f"return string-length(string($d)))"
                )
            return GenExpr("fn-collection", [body], flavor="any")
        if production == "ft-search":
            coll, phrase = a_coll(), a_phrase()
            shape = self.rng.random()
            if shape < 0.5:
                body = (
                    f"for $d in ft:search({lit(coll)}, {lit(phrase)}) "
                    f"return element hit {{ attribute uri {{ ft:uri($d) }}, "
                    f"attribute score {{ ft:score($d, {lit(phrase)}) }} }}"
                )
            elif shape < 0.75:
                body = f"count(ft:search({lit(coll)}, {lit(phrase)}))"
            else:
                body = (
                    f"for $d in ft:search({lit(phrase)}) "
                    f"return element hit {{ attribute uri {{ ft:uri($d) }} }}"
                )
            return GenExpr("ft-search", [body], flavor="any")
        if production == "ft-score":
            phrase = a_phrase()
            body = (
                f"for $d in fn:collection({lit(a_coll())}) "
                f"return ft:score($d, {lit(phrase)})"
            )
            return GenExpr("ft-score", [body], flavor="sequence")
        phrase = a_phrase()
        width = self.rng.choice((10, 20, 40))
        body = (
            f"for $d in ft:search({lit(a_coll())}, {lit(phrase)}) "
            f"return for $s in ft:kwic($d, {lit(phrase)}, {width}) "
            f"return element snippet {{ $s }}"
        )
        return GenExpr("ft-kwic", [body], flavor="any")

    def _declaration(self, env: List[_Binding]) -> GenExpr:
        roll = self.rng.random()
        if roll < 0.35:
            self._hit("global-variable")
            name = self._fresh("g")
            value = self._expr([], 4)
            env.append(_Binding(name, _SEQ, value.flavor))
            return GenExpr(
                "global-variable",
                [f"declare variable ${name} := ", value, ";"],
            )
        if roll < 0.75:
            self._hit("user-function")
            name = self._fresh("f")
            param = self._fresh("p")
            flavor = self.rng.choice(("numeric", "string"))
            body = self._expr([_Binding(param, _SEQ, flavor)], 5)
            self._functions.append((f"local:{name}", 1))
            return GenExpr(
                "user-function",
                [f"declare function local:{name}(${param}) {{ ", body, " };"],
            )
        self._hit("recursive-function")
        name = self._fresh("f")
        self._functions.append((f"local:{name}", 1))
        # the guarded countdown shape: recursion that always terminates.
        step = self.rng.choice(("$n - 1", "$n - 2"))
        yield_expr = self.rng.choice(("$n", "$n * $n", "concat('#', string($n))"))
        return GenExpr(
            "recursive-function",
            [
                f"declare function local:{name}($n) {{ "
                f"if ($n <= 0) then () else ({yield_expr}, "
                f"local:{name}({step})) }};"
            ],
        )

    # -- expression dispatch --------------------------------------------------

    def _expr(self, env: List[_Binding], fuel: int) -> GenExpr:
        """Any expression; occasionally one of the deliberate error idioms."""
        if fuel <= 0:
            return self._leaf(env)
        if self.rng.random() < 0.04:
            return self._error_idiom(env, fuel)
        flavor = self._choice(
            [
                ("numeric", 30),
                ("string", 16),
                ("boolean", 12),
                ("sequence", 22),
                ("node", 20),
            ]
        )
        if flavor == "numeric":
            return self._numeric(env, fuel)
        if flavor == "string":
            return self._string(env, fuel)
        if flavor == "boolean":
            return self._boolean(env, fuel)
        if flavor == "sequence":
            return self._sequence(env, fuel)
        return self._node(env, fuel)

    def _leaf(self, env: List[_Binding]) -> GenExpr:
        bound = [b for b in env if b.kind != _NODE]
        if bound and self.rng.random() < 0.4:
            self._hit("var-ref")
            binding = self.rng.choice(bound)
            return GenExpr(
                "var-ref", [f"${binding.name}"], flavor=binding.flavor
            )
        roll = self.rng.random()
        if roll < 0.5:
            self._hit("int")
            return atom(str(self.rng.randrange(-9, 100)), "numeric")
        if roll < 0.7:
            self._hit("string")
            return atom(f"'{self._word()}'", "string")
        if roll < 0.85:
            self._hit("decimal")
            return atom(
                f"{self.rng.randrange(0, 50)}.{self.rng.randrange(0, 10)}", "numeric"
            )
        self._hit("empty-sequence")
        return atom("()", "sequence")

    def _word(self) -> str:
        words = ("alpha", "beta", "gamma", "delta", "omega", "kappa", "zeta")
        return self.rng.choice(words)

    def _var_of(self, env: List[_Binding], flavors: Tuple[str, ...]) -> Optional[GenExpr]:
        suitable = [b for b in env if b.flavor in flavors and b.kind != _NODE]
        if not suitable:
            return None
        self._hit("var-ref")
        binding = self.rng.choice(suitable)
        return GenExpr("var-ref", [f"${binding.name}"], flavor=binding.flavor)

    # -- numeric --------------------------------------------------------------

    def _numeric(self, env: List[_Binding], fuel: int) -> GenExpr:
        if fuel <= 1:
            if self.rng.random() < 0.3:
                ref = self._var_of(env, ("numeric",))
                if ref is not None:
                    return ref
            self._hit("int")
            return atom(str(self.rng.randrange(-9, 100)), "numeric")
        production = self._choice(
            [
                ("int", 18),
                ("arith", 24),
                ("unary-minus", 5),
                ("numeric-builtin", 12),
                ("aggregate", 10),
                ("cast", 6),
                ("if", 6),
                ("var", 12),
                ("call", 6 if self._functions else 0),
                ("trace", 3),
            ]
        )
        if production == "var":
            ref = self._var_of(env, ("numeric", "any"))
            if ref is not None:
                return ref
            production = "int"
        if production == "int":
            self._hit("int")
            return atom(str(self.rng.randrange(-9, 100)), "numeric")
        if production == "arith":
            self._hit("arith")
            op = self.rng.choice((" + ", " - ", " * ", " idiv ", " mod ", " div "))
            left = self._numeric(env, fuel - 2)
            right = (
                atom(str(self.rng.randrange(1, 9)), "numeric")
                if op in (" idiv ", " mod ", " div ")
                else self._numeric(env, fuel - 2)
            )
            return GenExpr("arith", ["(", left, op, right, ")"], flavor="numeric")
        if production == "unary-minus":
            self._hit("unary-minus")
            return GenExpr(
                "unary-minus", ["(-", self._numeric(env, fuel - 1), ")"], flavor="numeric"
            )
        if production == "numeric-builtin":
            self._hit("numeric-builtin")
            fn = self.rng.choice(("abs", "floor", "ceiling", "round", "number"))
            return GenExpr(
                "numeric-builtin",
                [f"{fn}(", self._numeric(env, fuel - 2), ")"],
                flavor="numeric",
            )
        if production == "aggregate":
            self._hit("aggregate")
            fn = self.rng.choice(("count", "sum", "min", "max", "avg"))
            inner = (
                self._numeric_sequence(env, fuel - 2)
                if fn != "count"
                else self._sequence(env, fuel - 2)
            )
            return GenExpr("aggregate", [f"{fn}(", inner, ")"], flavor="numeric")
        if production == "cast":
            self._hit("cast")
            n = self.rng.randrange(0, 50)
            return GenExpr("cast", [f"xs:integer('{n}')"], flavor="numeric")
        if production == "call":
            name, _ = self.rng.choice(self._functions)
            return GenExpr(
                "call",
                [f"{name}(", self._numeric(env, fuel - 2), ")"],
                flavor="any",
            )
        if production == "trace":
            return self._trace(self._numeric(env, fuel - 1))
        self._hit("if")
        return GenExpr(
            "if",
            [
                "(if (",
                self._boolean(env, fuel - 2),
                ") then ",
                self._numeric(env, fuel - 2),
                " else ",
                self._numeric(env, fuel - 2),
                ")",
            ],
            flavor="numeric",
        )

    def _numeric_sequence(self, env: List[_Binding], fuel: int) -> GenExpr:
        roll = self.rng.random()
        if roll < 0.4:
            self._hit("range")
            lo = self.rng.randrange(0, 6)
            return atom(f"({lo} to {lo + self.rng.randrange(0, 8)})", "sequence")
        if roll < 0.8:
            self._hit("sequence")
            items: List[Part] = ["("]
            for index in range(self.rng.randrange(1, 4)):
                if index:
                    items.append(", ")
                items.append(self._numeric(env, max(0, fuel - 2)))
            items.append(")")
            return GenExpr("sequence", items, flavor="sequence")
        return self._numeric(env, fuel)

    # -- strings --------------------------------------------------------------

    def _string(self, env: List[_Binding], fuel: int) -> GenExpr:
        if fuel <= 1:
            self._hit("string")
            return atom(f"'{self._word()}'", "string")
        production = self._choice(
            [
                ("literal", 20),
                ("string-builtin", 30),
                ("var", 10),
                ("if", 5),
                ("trace", 2),
            ]
        )
        if production == "var":
            ref = self._var_of(env, ("string",))
            if ref is not None:
                return ref
            production = "literal"
        if production == "literal":
            self._hit("string")
            return atom(f"'{self._word()}'", "string")
        if production == "trace":
            return self._trace(self._string(env, fuel - 1))
        if production == "if":
            self._hit("if")
            return GenExpr(
                "if",
                [
                    "(if (",
                    self._boolean(env, fuel - 2),
                    ") then ",
                    self._string(env, fuel - 2),
                    " else ",
                    self._string(env, fuel - 2),
                    ")",
                ],
                flavor="string",
            )
        self._hit("string-builtin")
        fn = self.rng.choice(
            ("concat2", "upper", "lower", "substr", "join", "stringof", "translate")
        )
        if fn == "concat2":
            return GenExpr(
                "string-builtin",
                ["concat(", self._string(env, fuel - 2), ", ", self._string(env, fuel - 2), ")"],
                flavor="string",
            )
        if fn in ("upper", "lower"):
            name = "upper-case" if fn == "upper" else "lower-case"
            return GenExpr(
                "string-builtin",
                [f"{name}(", self._string(env, fuel - 2), ")"],
                flavor="string",
            )
        if fn == "substr":
            return GenExpr(
                "string-builtin",
                [
                    "substring(",
                    self._string(env, fuel - 2),
                    f", {self.rng.randrange(1, 4)}, {self.rng.randrange(1, 5)})",
                ],
                flavor="string",
            )
        if fn == "join":
            return GenExpr(
                "string-builtin",
                [
                    "string-join(for $s in ",
                    self._numeric_sequence(env, fuel - 3),
                    " return string($s), '-')",
                ],
                flavor="string",
            )
        if fn == "translate":
            return GenExpr(
                "string-builtin",
                ["translate(", self._string(env, fuel - 2), ", 'abg', 'xyz')"],
                flavor="string",
            )
        return GenExpr(
            "string-builtin", ["string(", self._expr(env, fuel - 2), ")"], flavor="string"
        )

    # -- booleans -------------------------------------------------------------

    def _boolean(self, env: List[_Binding], fuel: int) -> GenExpr:
        if fuel <= 1:
            return atom(self.rng.choice(("true()", "false()")), "boolean")
        production = self._choice(
            [
                ("general-compare", 22),
                ("value-compare", 16),
                ("node-compare", 5),
                ("logic", 12),
                ("not", 6),
                ("quantified", 8),
                ("exists", 8),
                ("castable", 5),
                ("instance-of", 5),
                ("literal", 6),
            ]
        )
        if production == "literal":
            return atom(self.rng.choice(("true()", "false()")), "boolean")
        if production == "general-compare":
            self._hit("general-compare")
            op = self.rng.choice((" = ", " != ", " < ", " <= ", " > ", " >= "))
            kind = self.rng.random()
            if kind < 0.5:
                left = self._numeric(env, fuel - 2)
                right = self._numeric_sequence(env, fuel - 2)
            else:
                left = self._numeric_sequence(env, fuel - 2)
                right = self._numeric(env, fuel - 2)
            return GenExpr("general-compare", ["(", left, op, right, ")"], flavor="boolean")
        if production == "value-compare":
            self._hit("value-compare")
            if self.rng.random() < 0.5:
                op = self.rng.choice((" eq ", " ne ", " lt ", " le ", " gt ", " ge "))
                left = self._numeric(env, fuel - 2)
                right = self._numeric(env, fuel - 2)
            else:
                op = self.rng.choice((" eq ", " ne ", " lt ", " ge "))
                left = self._string(env, fuel - 2)
                right = self._string(env, fuel - 2)
            return GenExpr("value-compare", ["(", left, op, right, ")"], flavor="boolean")
        if production == "node-compare":
            self._hit("node-compare")
            name = self._fresh("n")
            op = self.rng.choice((" is ", " << ", " >> "))
            second = self.rng.choice((f"${name}", "<q/>"))
            return GenExpr(
                "node-compare",
                [f"(let ${name} := <p/> return ${name}{op}{second})"],
                flavor="boolean",
            )
        if production == "logic":
            self._hit("logic")
            op = self.rng.choice((" and ", " or "))
            return GenExpr(
                "logic",
                ["(", self._boolean(env, fuel - 2), op, self._boolean(env, fuel - 2), ")"],
                flavor="boolean",
            )
        if production == "not":
            self._hit("not")
            return GenExpr(
                "not", ["not(", self._boolean(env, fuel - 2), ")"], flavor="boolean"
            )
        if production == "quantified":
            self._hit("quantified")
            word = self.rng.choice(("some", "every"))
            name = self._fresh("q")
            inner_env = env + [_Binding(name, _ITEM, "numeric")]
            return GenExpr(
                "quantified",
                [
                    f"({word} ${name} in ",
                    self._numeric_sequence(env, fuel - 2),
                    " satisfies ",
                    self._boolean(inner_env, fuel - 3),
                    ")",
                ],
                flavor="boolean",
            )
        if production == "exists":
            self._hit("sequence-builtin")
            fn = self.rng.choice(("exists", "empty"))
            return GenExpr(
                "sequence-builtin",
                [f"{fn}(", self._sequence(env, fuel - 2), ")"],
                flavor="boolean",
            )
        if production == "castable":
            self._hit("castable")
            target = self.rng.choice(("xs:integer", "xs:decimal", "xs:string"))
            return GenExpr(
                "castable",
                ["(", self._leaf(env), f" castable as {target})"],
                flavor="boolean",
            )
        self._hit("instance-of")
        target = self.rng.choice(
            ("xs:integer", "xs:integer+", "xs:string", "element()", "item()*")
        )
        return GenExpr(
            "instance-of",
            ["(", self._expr(env, fuel - 2), f" instance of {target})"],
            flavor="boolean",
        )

    # -- sequences (incl. FLWOR, predicates, typeswitch, try/catch) -----------

    def _sequence(self, env: List[_Binding], fuel: int) -> GenExpr:
        if fuel <= 1:
            self._hit("range")
            lo = self.rng.randrange(0, 5)
            return atom(f"({lo} to {lo + self.rng.randrange(0, 6)})", "sequence")
        production = self._choice(
            [
                ("sequence", 14),
                ("range", 8),
                ("flwor", 22),
                ("let", 10),
                ("predicate", 12),
                ("positional-predicate", 6),
                ("typeswitch", 6),
                ("try-catch", 7),
                ("sequence-builtin", 10),
                ("path", 10),
                ("treat-as", 3),
            ]
        )
        if production == "sequence":
            self._hit("sequence")
            items: List[Part] = ["("]
            for index in range(self.rng.randrange(2, 5)):
                if index:
                    items.append(", ")
                items.append(self._expr(env, fuel - 2))
            items.append(")")
            return GenExpr("sequence", items, flavor="sequence")
        if production == "range":
            self._hit("range")
            lo = self.rng.randrange(0, 5)
            return atom(f"({lo} to {lo + self.rng.randrange(0, 8)})", "sequence")
        if production == "flwor":
            return self._flwor(env, fuel)
        if production == "let":
            self._hit("let")
            name = self._fresh("l")
            value = self._expr(env, fuel - 2)
            body_env = env + [_Binding(name, _SEQ, value.flavor)]
            return GenExpr(
                "let",
                [f"(let ${name} := ", value, " return ", self._expr(body_env, fuel - 2), ")"],
                flavor="sequence",
            )
        if production == "predicate":
            self._hit("predicate")
            base = self._numeric_sequence(env, fuel - 2)
            predicate = self._focus_predicate(env, fuel - 3)
            return GenExpr("predicate", ["(", base, ")[", predicate, "]"], flavor="sequence")
        if production == "positional-predicate":
            self._hit("positional-predicate")
            base = self._numeric_sequence(env, fuel - 2)
            form = self.rng.choice(
                (
                    f"[{self.rng.randrange(1, 5)}]",
                    "[last()]",
                    f"[position() > {self.rng.randrange(0, 4)}]",
                    f"[position() < {self.rng.randrange(2, 6)}]",
                )
            )
            return GenExpr(
                "positional-predicate", ["(", base, ")", form], flavor="sequence"
            )
        if production == "typeswitch":
            self._hit("typeswitch")
            name = self._fresh("t")
            operand = self._expr(env, fuel - 3)
            case_env = env + [_Binding(name, _SEQ, "any")]
            case_type = self.rng.choice(("element()", "xs:integer", "xs:string"))
            return GenExpr(
                "typeswitch",
                [
                    "(typeswitch (",
                    operand,
                    f") case ${name} as {case_type} return ",
                    self._expr(case_env, fuel - 3),
                    " default return ",
                    self._expr(env, fuel - 3),
                    ")",
                ],
                flavor="sequence",
            )
        if production == "try-catch":
            self._hit("try-catch")
            body = self._expr(env, fuel - 2)
            if self.rng.random() < 0.5:
                name = self._fresh("e")
                catch_env = env + [_Binding(name, _SEQ, "node")]
                handler: List[Part] = [
                    f" }} catch ${name} {{ ",
                    self._expr(catch_env, fuel - 3),
                    " })",
                ]
            else:
                handler = [" } catch { ", self._expr(env, fuel - 3), " })"]
            return GenExpr(
                "try-catch", ["(try { ", body] + handler, flavor="sequence"
            )
        if production == "sequence-builtin":
            self._hit("sequence-builtin")
            fn = self.rng.choice(
                ("reverse", "distinct-values", "subsequence", "insert-before", "remove", "data")
            )
            inner = self._numeric_sequence(env, fuel - 2)
            if fn == "subsequence":
                return GenExpr(
                    "sequence-builtin",
                    [
                        "subsequence(",
                        inner,
                        f", {self.rng.randrange(1, 4)}, {self.rng.randrange(1, 5)})",
                    ],
                    flavor="sequence",
                )
            if fn == "insert-before":
                return GenExpr(
                    "sequence-builtin",
                    [
                        "insert-before(",
                        inner,
                        f", {self.rng.randrange(1, 4)}, ",
                        self._numeric(env, fuel - 3),
                        ")",
                    ],
                    flavor="sequence",
                )
            if fn == "remove":
                return GenExpr(
                    "sequence-builtin",
                    ["remove(", inner, f", {self.rng.randrange(1, 5)})"],
                    flavor="sequence",
                )
            return GenExpr("sequence-builtin", [f"{fn}(", inner, ")"], flavor="sequence")
        if production == "treat-as":
            self._hit("treat-as")
            return GenExpr(
                "treat-as",
                ["(", self._numeric(env, fuel - 2), " treat as xs:integer)"],
                flavor="numeric",
            )
        return self._path(env, fuel)

    def _focus_predicate(self, env: List[_Binding], fuel: int) -> GenExpr:
        """A predicate over the context item ``.`` (numeric focus)."""
        form = self.rng.choice(
            (
                f". mod {self.rng.randrange(2, 5)} = {self.rng.randrange(0, 3)}",
                f". >= {self.rng.randrange(0, 9)}",
                f". * 2 <= {self.rng.randrange(0, 18)}",
                f"not(. = {self.rng.randrange(0, 9)})",
            )
        )
        return atom(form, "boolean")

    def _flwor(self, env: List[_Binding], fuel: int) -> GenExpr:
        self._hit("flwor")
        name = self._fresh("i")
        parts: List[Part] = []
        source = self._numeric_sequence(env, fuel - 2)
        inner_env = env + [_Binding(name, _ITEM, "numeric")]
        use_at = self.rng.random() < 0.25
        if use_at:
            self._hit("flwor-at")
            pos = self._fresh("a")
            parts += [f"(for ${name} at ${pos} in ", source]
            inner_env.append(_Binding(pos, _ITEM, "numeric"))
        else:
            parts += [f"(for ${name} in ", source]
        if self.rng.random() < 0.3:
            let_name = self._fresh("l")
            parts += [f" let ${let_name} := ", self._expr(inner_env, fuel - 3)]
            inner_env.append(_Binding(let_name, _SEQ, "any"))
        if self.rng.random() < 0.4:
            self._hit("flwor-where")
            parts += [" where ", self._boolean(inner_env, fuel - 3)]
        if self.rng.random() < 0.3:
            self._hit("flwor-order")
            direction = self.rng.choice(("", " descending", " ascending"))
            parts.append(f" order by ${name}{direction}")
        parts += [" return ", self._expr(inner_env, fuel - 3), ")"]
        return GenExpr("flwor", parts, flavor="sequence")

    def _flwor_join(self) -> GenExpr:
        """``for $x in T/a for $y in T/b[@x (eq|=) P]`` over one tree: the
        correlated shape lowering turns into a hash join when the probe
        ``P`` may run once per tuple.  ``P`` is plain, reads the focus,
        traces, or calls a declared function."""
        self._hit("flwor-join")
        tree, x, y = self._fresh("t"), self._fresh("i"), self._fresh("i")
        pure = [
            f"${x}/@x",
            f"string(${x}/@x)",
            f"(${x}/@x, @x)",
            f"concat(${x}/@x, string())",
        ]
        calls = [f'trace(${x}/@x, "j")'] + [f"{name}(${x}/@x)" for name, _ in self._functions]
        probe = self.rng.choice(pure + calls)
        op = self.rng.choice(("eq", "="))
        return GenExpr(
            "flwor-join",
            [
                f"(let ${tree} := {self._tree_literal(0)} "
                f"for ${x} in ${tree}/a for ${y} in ${tree}/b[@x {op} {probe}] "
                f"return concat(${x}, '-', ${y}))"
            ],
            flavor="sequence",
            pure=probe in pure,
            creates_nodes=True,
        )

    def _predicate_step(self) -> GenExpr:
        """``$t/STEP[P]...``: 1-3 predicates of every shape of the one
        predicate rule, with plain, traced, failing, focus-reading or
        declared right sides, over a tree literal's step, that step mixed
        with atomics, or root elements (one with two ``x`` attributes in
        ``keep`` mode), at the top level or in an untyped (inlined) or a
        typed (closure-compiled) function."""
        self._hit("predicate-rule")
        rng = self.rng
        rights = ["'1'", "'a'", "$v", "string(2)", "3", "()", "($v, $v)", "(1 idiv 0)",
                  'trace($v, "p")', "error()", "string(.)", "name()", "position()"]
        rights += [f"{name}($v)" for name, _ in self._functions]
        shapes = (
            "[{d}]", "[{d}e0]", "[1.5e0]", "[position() {pos} {d}]", "[{d} ge position()]",
            "[last()]", "[@x eq '{d}']", "['{d}' eq @x]", "[@x = ('{d}', '{e}')]", "[@x]",
            "[contains(string(property[@name eq 'p']), '{d}')]", "[{left} {vop} {r}]",
            "[@x {gop} {r}]", "[@x eq '{d}' or c]", "[trace(@x, 't') = '{d}']",
            "[string(@x)]", "[c]", "[{r}]",
        )
        predicates = "".join(
            rng.choice(shapes).format(
                d=rng.randrange(4), e=rng.randrange(4), r=rng.choice(rights),
                pos=rng.choice(("gt", "le", "=", "<")), left=rng.choice(("@x", "name(.)")),
                vop=rng.choice(("eq", "ne", "lt")), gop=rng.choice(("=", "!=", "<")),
            )
            for _ in range(rng.randrange(1, 4))
        )
        roll = rng.random()
        if roll < 0.2:
            path = f"($t/*, {rng.randrange(4)}, 's'){predicates}"
        elif roll < 0.4:
            roots = "(element a { attribute x {'1'}, attribute x {'2'} }, <b x='1'/>, $t/*)"
            path = f"(let $u := {roots} return $u/self::{rng.choice(('*', 'a'))}{predicates})"
        else:
            step = rng.choice(("a", "*", "node()", "*/@x", "b/c", "a/text()"))
            path = f"$t/{step}{predicates}"
        tree, value = self._tree_literal(0), f"'{rng.randrange(4)}'"
        placement = rng.choice(("", "($t, $v)", "($t as node(), $v as xs:string) as item()*"))
        if not placement:
            text = f"(let $t := {tree} let $v := {value} return {path})"
        else:
            name = f"local:{self._fresh('q')}"
            text = f"declare function {name}{placement} {{ {path} }};\n{name}({tree}, {value})"
        return GenExpr("predicate-rule", [text], flavor="sequence", pure=False, creates_nodes=True)

    # -- nodes, constructors, paths -------------------------------------------

    def _node(self, env: List[_Binding], fuel: int) -> GenExpr:
        if fuel <= 1:
            return GenExpr("direct-element", ["<leaf/>"], flavor="node", creates_nodes=True)
        production = self._choice(
            [
                ("direct-element", 26),
                ("computed-element", 10),
                ("computed-attribute", 5),
                ("duplicate-attributes", 7),
                ("text-constructor", 5),
                ("comment-constructor", 3),
                ("document-constructor", 5),
                ("enclosed-multi", 12),
                ("path", 18),
            ]
        )
        if production == "direct-element":
            self._hit("direct-element")
            tag = self.rng.choice(("a", "b", "item", "rec"))
            parts: List[Part] = [f"<{tag}"]
            if self.rng.random() < 0.4:
                parts.append(f" k='{self.rng.randrange(0, 9)}'")
            if self.rng.random() < 0.25:
                parts += [" v='{", self._numeric(env, fuel - 3), "}'"]
            parts.append(">")
            for _ in range(self.rng.randrange(0, 3)):
                roll = self.rng.random()
                if roll < 0.35:
                    parts.append(self._word())
                elif roll < 0.75:
                    parts += ["{ ", self._expr(env, fuel - 3), " }"]
                else:
                    parts.append(self._node(env, fuel - 3))
            parts.append(f"</{tag}>")
            return GenExpr("direct-element", parts, flavor="node", creates_nodes=True)
        if production == "computed-element":
            self._hit("computed-element")
            tag = self.rng.choice(("x", "y", "gen"))
            return GenExpr(
                "computed-element",
                [f"element {tag} {{ ", self._expr(env, fuel - 3), " }"],
                flavor="node",
                creates_nodes=True,
            )
        if production == "computed-attribute":
            self._hit("computed-attribute")
            # legal on its own; becomes the paper's XQTY0024 trap when the
            # enclosing constructor already emitted content.
            return GenExpr(
                "computed-attribute",
                [
                    f"(let $at := attribute k{self.rng.randrange(0, 4)} {{",
                    self._numeric(env, fuel - 3),
                    "} return <holder> {$at} </holder>)",
                ],
                flavor="node",
                creates_nodes=True,
            )
        if production == "duplicate-attributes":
            self._hit("duplicate-attributes")
            name = self.rng.choice(("dup", "k"))
            form = self.rng.random()
            if form < 0.5:
                return GenExpr(
                    "duplicate-attributes",
                    [
                        f"(let $a := attribute {name} {{",
                        self._numeric(env, fuel - 3),
                        f"}} let $b := attribute {name} {{",
                        self._numeric(env, fuel - 3),
                        "} return <el> {$a}{$b} </el>)",
                    ],
                    flavor="node",
                    creates_nodes=True,
                )
            return GenExpr(
                "duplicate-attributes",
                [
                    f"<el {name}='1' {name}2='2'>{{attribute {name} {{",
                    self._numeric(env, fuel - 3),
                    "} }</el>",
                ],
                flavor="node",
                creates_nodes=True,
            )
        if production == "text-constructor":
            self._hit("text-constructor")
            return GenExpr(
                "text-constructor",
                ["text { ", self._expr(env, fuel - 3), " }"],
                flavor="node",
                creates_nodes=True,
            )
        if production == "comment-constructor":
            self._hit("comment-constructor")
            return GenExpr(
                "comment-constructor",
                [f"comment {{'{self._word()}'}}"],
                flavor="node",
                creates_nodes=True,
            )
        if production == "document-constructor":
            self._hit("document-constructor")
            return GenExpr(
                "document-constructor",
                ["document {<r>", self._node(env, fuel - 3), "</r>}"],
                flavor="node",
                creates_nodes=True,
            )
        if production == "enclosed-multi":
            # the e01 quirk shape: adjacent enclosed expressions whose
            # boundary decides where spaces land in the text content.
            self._hit("enclosed-multi")
            return GenExpr(
                "enclosed-multi",
                [
                    "<el>{ ",
                    self._expr(env, fuel - 3),
                    " }{ ",
                    self._expr(env, fuel - 3),
                    " }</el>",
                ],
                flavor="node",
                creates_nodes=True,
            )
        return self._path(env, fuel)

    def _tree_literal(self, fuel: int) -> str:
        """A small deterministic XML tree for paths to walk."""
        count = self.rng.randrange(2, 5)
        rows = []
        for index in range(count):
            tag = self.rng.choice(("a", "b"))
            attr = f" x='{self.rng.randrange(0, 4)}'" if self.rng.random() < 0.5 else ""
            if self.rng.random() < 0.4:
                rows.append(f"<{tag}{attr}><c>{index}</c></{tag}>")
            else:
                rows.append(f"<{tag}{attr}>{index}</{tag}>")
        return f"<r>{''.join(rows)}</r>"

    def _path(self, env: List[_Binding], fuel: int) -> GenExpr:
        tree = self._tree_literal(fuel)
        production = self._choice(
            [
                ("path-child", 24),
                ("path-descendant", 18),
                ("path-attribute", 14),
                ("path-axis", 18),
                ("path-kind-test", 14),
            ]
        )
        self._hit(production)
        tag = self.rng.choice(("a", "b"))
        if production == "path-child":
            steps = self.rng.choice(
                (f"/{tag}", f"/{tag}/c", f"/{tag}/text()", f"/{tag}[c]")
            )
        elif production == "path-descendant":
            steps = self.rng.choice(("//c", f"//{tag}", "//c/text()", f"//{tag}[@x]"))
        elif production == "path-attribute":
            steps = self.rng.choice((f"/{tag}/@x", "//@x", f"/{tag}[@x='1']"))
        elif production == "path-axis":
            steps = self.rng.choice(
                (
                    f"/{tag}/following-sibling::*",
                    f"/{tag}/preceding-sibling::*",
                    "//c/parent::*",
                    "//c/ancestor::*",
                    f"/{tag}[last()]",
                )
            )
        else:
            steps = self.rng.choice(("/node()", "/*", "//node()", "/text()"))
        wrap = self.rng.random()
        expr = GenExpr(
            "path",
            [f"({tree}){steps}"],
            flavor="sequence",
            creates_nodes=True,
        )
        if wrap < 0.3:
            self._hit("aggregate")
            return GenExpr("aggregate", ["count(", expr, ")"], flavor="numeric")
        if wrap < 0.45:
            self._hit("string-builtin")
            return GenExpr(
                "string-builtin",
                ["string-join(for $p in ", expr, " return string($p), '|')"],
                flavor="string",
            )
        return expr

    # -- trace and error idioms ----------------------------------------------

    def _trace(self, value: GenExpr) -> GenExpr:
        self._hit("trace")
        self._trace_counter += 1
        return GenExpr(
            "trace",
            [f"trace('t{self._trace_counter}', ", value, ")"],
            flavor=value.flavor,
            pure=False,
        )

    def _error_idiom(self, env: List[_Binding], fuel: int) -> GenExpr:
        production = self._choice(
            [
                ("err-unbound-variable", 8),
                ("err-type-clash", 15),
                ("err-div-zero", 10),
                ("err-attr-after-content", 10),
                ("err-user-error", 10),
                ("err-bad-cast", 12),
                ("err-cardinality", 10),
                ("error-as-value", 35),
            ]
        )
        self._hit(production)
        if production == "err-unbound-variable":
            return GenExpr("err-unbound-variable", ["$unbound"], flavor="any", pure=False)
        if production == "err-type-clash":
            form = self.rng.choice(
                ("(1 + <a>x</a>)", "(-'text')", "(('a','b') is <x/>)", "(1/child::a)")
            )
            return GenExpr("err-type-clash", [form], flavor="any", pure=False)
        if production == "err-div-zero":
            return GenExpr(
                "err-div-zero",
                ["(", self._numeric(env, fuel - 2), " div 0)"],
                flavor="numeric",
                pure=False,
            )
        if production == "err-attr-after-content":
            return GenExpr(
                "err-attr-after-content",
                ["(let $a := attribute late {1} return <el>x{$a}</el>)"],
                flavor="node",
                pure=False,
            )
        if production == "err-user-error":
            return GenExpr(
                "err-user-error",
                [f"error('{self._word().upper()}')"],
                flavor="any",
                pure=False,
            )
        if production == "err-bad-cast":
            form = self.rng.choice(
                ("xs:integer('nope')", "(() cast as xs:integer)", "(5 treat as xs:string)")
            )
            return GenExpr("err-bad-cast", [form], flavor="any", pure=False)
        if production == "err-cardinality":
            form = self.rng.choice(
                ("((1,2) eq 3)", "((1, 2) to 3)", "exactly-one((1,2))", "zero-or-one((1,2,3))")
            )
            return GenExpr("err-cardinality", [form], flavor="any", pure=False)
        # error-as-value: the paper's convention of *returning* an <error>
        # element instead of raising, then testing for it downstream.
        message = self._word()
        return GenExpr(
            "error-as-value",
            [
                "(let $r := (if (",
                self._boolean(env, fuel - 2),
                f") then <error><message>{message}</message></error> else ",
                self._numeric(env, fuel - 2),
                ") return (if ($r instance of element(error)) "
                "then string($r/message) else $r))",
            ],
            flavor="any",
            creates_nodes=True,
        )
