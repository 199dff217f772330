"""One FLWOR rule: the fast engines run every clause through one function.

The closure compiler and the algebra executor run each FLWOR's tuple
stream through ``repro.xquery.compiler.run_flwor``: ``for`` expansion with
``at`` positions, ``let`` and its declared-type error, ``where``,
``order by`` over ``evaluator._OrderKey`` and the ``return``
concatenation, with a deadline check per clause and per tuple.  The
treewalk's own ``_eval_flwor`` is the reference.

* The FLWOR pin draws programs from for/let/where/order-by/return parts
  (``for`` sources include correlated scans, which the executor runs as
  hash joins) and runs each on three engines: the treewalk, the executor (``FLWOR`` in
  ``explain``) and the compiler (the same body inside a typed ``local:``
  function, which the algebra hands to the compiler whole).  Values (node
  identities, atomic types and reprs), errors and ``fn:trace`` messages
  must agree.
* The order-key rows pin ``order by`` to the ``lt`` rule and to NaN's
  place next to ``()`` (XQuery 1.0 §3.8.3) on all three engines.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xdm import Node, string_value_of_atomic
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.errors import XQueryError

ENGINE = XQueryEngine(EngineConfig(compile_cache_size=0))

FUNCTION = (
    "declare function local:f($d as node()) as item()* {{ {body} }}; local:f($d)"
)

DOCUMENT = parse_document(
    '<r><a k="2">x<b k="1"/></a><c/><a>y</a><b k="x">z</b>'
    '<a k="1"><a k="3"/></a></r>'
)

#: one atomic each: integers, doubles (NaN and -0 among them), strings,
#: untyped values and booleans.
ATOMS = (
    "1",
    "2",
    "-3",
    "0",
    'xs:double("NaN")',
    "-0.0e0",
    "1.5e0",
    '"a"',
    '"b"',
    '""',
    'xs:untypedAtomic("a")',
    'xs:untypedAtomic("10")',
    "true()",
    "false()",
)
#: order keys: an atomic, (), two items (XPTY0004).
KEYS = ATOMS + ("()", "(1, 2)")
PATHS = ("$d/r/a", "$d//b", "$d/r/*", "$d//a/@k", "$d/r/c/b")
#: where conditions: booleans, numbers, a node, two atomics (FORG0006).
CONDITIONS = ("true()", "false()", "2", "0", "$d/r/a[1]", "$d/r/c/b", "(1, 2)")


def _traced(draw, expr, label):
    if draw(st.booleans()):
        return f'trace("{label}", {expr})'
    return expr


@st.composite
def flwors(draw, depth=0, outer=()):
    """One FLWOR; *outer* names the variables an enclosing FLWOR bound."""
    prefix = "xyz"[depth]
    fors, positions, lets = [], [], []
    clauses = []

    def variable():
        names = list(outer) + fors + positions + lets
        return draw(st.sampled_from(names)) if names else "1"

    def add_for():
        source = draw(
            st.one_of(
                st.lists(st.sampled_from(ATOMS), max_size=4).map(
                    lambda atoms: f"({', '.join(atoms)})"
                ),
                st.sampled_from(PATHS),
                st.just(variable()),
                # a hash join when the variable is bound in this FLWOR
                st.sampled_from(("$d//a[@k = {}]", "$d//b[@k eq string({})]")).map(
                    lambda join: join.format(variable())
                ),
                flwors(depth + 1, tuple(outer) + tuple(fors + positions + lets))
                if depth < 2
                else st.just("()"),
            )
        )
        var = f"${prefix}{len(fors)}"
        clause = f"for {var}"
        if draw(st.booleans()):
            position = f"$p{prefix}{len(positions)}"
            clause += f" at {position}"
            positions.append(position)
        clauses.append(f"{clause} in {_traced(draw, source, 'source')}")
        fors.append(var)

    def add_let():
        var = f"$l{prefix}{len(lets)}"
        kind = draw(st.sampled_from(("untyped", "match", "mismatch")))
        if kind == "untyped":
            value = draw(st.sampled_from(PATHS + ATOMS + (variable(),)))
            clause = f"let {var} := {_traced(draw, value, 'let')}"
        elif kind == "match":
            value = draw(st.sampled_from(("(1, 2)", "()", "3", "count($d//a)")))
            clause = f"let {var} as xs:integer* := {_traced(draw, value, 'let')}"
        else:
            value = draw(st.sampled_from(('"a"', "1.5e0", "$d/r/a", variable())))
            clause = f"let {var} as xs:integer* := {_traced(draw, value, 'let')}"
        clauses.append(clause)
        lets.append(var)

    def add_where():
        condition = draw(
            st.sampled_from(CONDITIONS + (variable(), f"{variable()} = 1", f"{variable()}/@k"))
        )
        clauses.append(f"where {_traced(draw, condition, 'where')}")

    def key():
        if positions and draw(st.booleans()):
            first, second = draw(st.sampled_from(KEYS)), draw(st.sampled_from(KEYS))
            return f"if ({draw(st.sampled_from(positions))} mod 2 eq 0) then {first} else {second}"
        name = variable()
        return draw(
            st.sampled_from(
                (name, f"string({name})", f"data({name})", draw(st.sampled_from(KEYS)))
            )
        )

    def add_order():
        specs = []
        for _ in range(draw(st.integers(1, 2))):
            spec = _traced(draw, key(), "key")
            spec += draw(st.sampled_from(("", " ascending", " descending")))
            spec += draw(st.sampled_from(("", " empty least", " empty greatest")))
            specs.append(spec)
        clauses.append("order by " + ", ".join(specs))

    # XQuery 1.0's order: (for | let)+, where?, order by?
    add_for()
    for _ in range(draw(st.integers(0, 2 - depth))):
        draw(st.sampled_from((add_for, add_let)))()
    if draw(st.booleans()):
        add_where()
    if draw(st.booleans()):
        add_order()
    result = draw(
        st.sampled_from(
            (variable(), f"({variable()}, {variable()})", f"string({variable()})", "1")
        )
    )
    return f"({' '.join(clauses)} return {_traced(draw, result, 'return')})"


def _outcome(query, backend):
    trace = TraceLog()
    try:
        result = query.run(backend=backend, variables={"d": DOCUMENT}, trace=trace)
    except XQueryError as error:
        value = ("error", type(error).__name__, error.code, error.bare_message)
    else:
        value = [
            ("node", id(item)) if isinstance(item, Node) else (type(item).__name__, repr(item))
            for item in result
        ]
    return value, trace.messages


def _engines(body):
    """The program as the treewalk, the executor and the compiler run it."""
    plain = ENGINE.compile(body)
    typed = ENGINE.compile(FUNCTION.format(body=body))
    return (plain, "treewalk"), (plain, "algebra"), (typed, "algebra")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=flwors())
def test_every_flwor_agrees_on_three_engines(body):
    (plain, _), executor, compiler = _engines(body)
    reference = _outcome(plain, "treewalk")
    assert _outcome(*executor) == reference, ("executor", body)
    assert _outcome(*compiler) == reference, ("compiler", body)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=flwors())
def test_every_flwor_runs_on_the_engine_it_names(body):
    _, (plain, _), (typed, _) = _engines(body)
    assert "FLWOR" in plain.explain()["text"], body
    assert "[typed signature]" in typed.explain()["text"], body


# -- order keys by the lt rule ----------------------------------------------------

#: program -> its value (space-joined strings) or error code on every
#: engine.  The NaN and boolean rows read otherwise when ``_OrderKey``
#: compared raw Python values.
ORDER_ROWS = {
    'for $x in (1, xs:double("NaN"), 0) order by $x return $x': "NaN 0 1",
    'for $x in (0, xs:double("NaN"), 1) order by $x return $x': "NaN 0 1",
    'for $x in (xs:double("NaN"), 1, xs:double("NaN"), 0) order by $x return $x': (
        "NaN NaN 0 1"
    ),
    'for $x in (1, xs:double("NaN"), 0) order by $x empty greatest return $x': (
        "0 1 NaN"
    ),
    'for $x in (1, xs:double("NaN"), 0) order by $x descending return $x': (
        "1 0 NaN"
    ),
    'for $x in (1, xs:double("NaN"), 0) order by $x descending empty greatest '
    "return $x": "NaN 1 0",
    'for $x in (1, xs:double("NaN"), 2, 3) order by (if ($x eq 2) then () else $x) '
    "return $x": "2 NaN 1 3",
    'for $x in (1, xs:double("NaN"), 2, 3) order by (if ($x eq 2) then () else $x) '
    "empty greatest return $x": "1 3 NaN 2",
    "for $x in (true(), 0, 2) order by $x return $x": "XPTY0004",
    "for $x in (true(), 1) order by $x return $x": "XPTY0004",
    "for $x in (1, true()) order by $x descending return $x": "XPTY0004",
    "for $x in (true(), false(), true()) order by $x return $x": "false true true",
    'for $x in (2, 1.5, -0.0e0, 1.0) order by $x return $x': "0 1 1.5 2",
    'for $x in ("b", xs:untypedAtomic("a"), "c") order by $x return string($x)': "a b c",
    'for $x in (1, xs:untypedAtomic("0")) order by $x return $x': "XPTY0004",
    'for $x in (1, "a") order by $x return $x': "XPTY0004",
    "for $x in (1, 2) order by (1, 2) return $x": "XPTY0004",
    # a stable sort: equal keys keep their input order, descending too
    'for $x in (3, 1, 2) order by "k" return $x': "3 1 2",
    "for $x in (1, 2, 3, 4) order by $x mod 2 return $x": "2 4 1 3",
    "for $x in (1, 2, 3, 4) order by $x mod 2 descending return $x": "1 3 2 4",
    "for $x in (1, 2, 3, 4) order by $x mod 2, $x descending return $x": "4 2 3 1",
}

#: program -> its value or error code on every engine, one row per clause.
CLAUSE_ROWS = {
    'for $x at $i in ("a", "b") return ($i, $x)': "1 a 2 b",
    "for $x at $i in $d/r/a for $y at $j in $x/@k return ($i, $j)": "1 1 3 1",
    'for $x in (1, 2) let $y as xs:integer* := "a" return $y': "XPTY0004",
    "for $x in (1, 2) let $y as xs:integer* := ($x, 3) return $y": "1 3 2 3",
    "for $x in () let $y as xs:integer* := \"a\" return $y": "",
    "for $x in (1, 2, 3) where $x ne 2 return $x": "1 3",
    "for $x in (1, 2) where (1, 2) return $x": "FORG0006",
    "for $x in (0, 1, 2) where $x return $x": "1 2",
}


def _rendered(query, backend):
    try:
        result = query.run(backend=backend, variables={"d": DOCUMENT})
    except XQueryError as error:
        return error.code
    return " ".join(string_value_of_atomic(item) for item in result)


@pytest.mark.parametrize("program", list(ORDER_ROWS))
def test_order_by_compares_keys_by_the_lt_rule(program):
    for name, engine in zip(("treewalk", "executor", "compiler"), _engines(program)):
        assert _rendered(*engine) == ORDER_ROWS[program], (name, program)


@pytest.mark.parametrize("program", list(CLAUSE_ROWS))
def test_each_clause_reads_as_the_reference_says(program):
    for name, engine in zip(("treewalk", "executor", "compiler"), _engines(program)):
        assert _rendered(*engine) == CLAUSE_ROWS[program], (name, program)
