"""Differential parity: the algebra backend must match the treewalk exactly.

The algebra's plan executor (:mod:`repro.xquery.algebra`) does not share
the treewalk's interpreter loop, and the closure compiler it falls back on
(:mod:`repro.xquery.compiler`) compiles the forms measured hot and hands
every other form to the treewalk.  Their fidelity to the period-accurate
quirks is asserted *here*, by running the same programs under both
backends and comparing serialized results, trace output, and error
codes; the boundary rows nest a handed-over form inside each compiled
form that reuses a focus or scope, and compare error locations too.  The corpus mirrors the benchmark suite: the e01 sequence-indexing
rows, the e02 attribute-folding programs under every duplicate-attribute
mode, the error regimes (spec codes and Galax diagnostics), the
trace-optimizer deletion bug, and the real docgen/querycalc workloads end
to end — the calculus workloads through every implementation, including
the query service cold and warm (the warm hit must replay the cold result
and its traces).

The comparison currency lives in :mod:`repro.testing.oracle`; the fuzzer
(``python -m repro.testing.fuzz``) drives the same functions over
generated programs, so a divergence found either way reproduces in both
harnesses.
"""

import pytest

from repro.awb import export_model
from repro.docgen import XQueryDocumentGenerator
from repro.querycalc import XQueryCalculusBackend, parse_query_xml
from repro.testing.oracle import (
    assert_calculus_parity,
    run_outcome as outcome,  # noqa: F401  (the shared single-backend runner)
    xquery_outcomes,
)
from repro.workloads import make_it_model, system_context_template
from repro.xmlio import serialize
from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.api import BACKENDS, serialize_result
from repro.xquery.errors import XQueryError


def assert_parity(source, config=None, **run_kwargs):
    results = xquery_outcomes(source, config, run_kwargs)
    for backend in BACKENDS:
        assert results[backend] == results["treewalk"], (backend, source)
    assert results["treewalk"][0] != "crash", results["treewalk"]
    return results["treewalk"]


# -- expression corpus (examples + language features) -------------------------

EXPRESSIONS = [
    # from examples/quickstart.py
    "for $i in 1 to 5 return $i * $i",
    "1 = (1,2,3)",
    "(1,2) != (1,2)",
    "(1,(2,3),(),(4,(5)))",
    # arithmetic / unary / precedence
    "2 + 3 * 4 - 6 div 4",
    "-(1, 2)[1] + 7 mod 3",
    "10 idiv 3",
    # comparisons, all three styles
    "1 < 2 and 'a' le 'b' or not(true())",
    "let $a := <x/> let $b := <y/> return ($a is $a, $a is $b, $a << $b)",
    # sequences, ranges, predicates
    "(1 to 10)[. mod 2 = 0]",
    "(1 to 10)[position() > 7][last()]",
    "reverse((1 to 4))[2]",
    # FLWOR: where / order by / positional var / nested for
    "for $i at $p in ('c','a','b') order by $i descending return concat($p, $i)",
    "for $i in 1 to 3 for $j in 1 to 3 where $i < $j return $i * 10 + $j",
    "let $s := (3, 1, 2) for $x in $s order by $x return $x + 100",
    "for $x in (1, 2) let $y := $x + 1 return ($y, $y)",
    # quantified
    "some $x in (1,2,3) satisfies $x > 2",
    "every $x in (1,2,3), $y in (4,5) satisfies $x < $y",
    # conditionals / typeswitch / try-catch
    "if ((0)) then 'yes' else 'no'",
    "typeswitch (<a/>) case $e as element() return 'elem' default return 'other'",
    "try { 1 div 0 } catch { 'caught' }",
    "try { error('boom') } catch $e { $e//message/text() }",
    # casts and type tests
    "xs:integer('42') + 1",
    "'3.5' castable as xs:decimal",
    "(1, 2) instance of xs:integer+",
    "() cast as xs:integer?",
    "5 treat as xs:integer",
    # constructors: direct, computed, nested, attributes
    "<a b='{1+1}'>text{2+3}<c/></a>",
    "element {concat('d', 'iv')} {attribute class {'x'}, 'body'}",
    "document {<r><k>1</k></r>}//k/text()",
    "<out>{for $i in 1 to 3 return <n>{$i}</n>}</out>",
    "text {1, 2, 3}",
    "comment {'notes'}",
    # paths and axes over constructed trees
    "<r><a><b>1</b></a><a><b>2</b></a></r>/a/b/text()",
    "<r><a x='1'/><a x='2'/></r>/a/@x",
    "(<r><a/><b/><c/></r>)/b/following-sibling::*",
    "(<r><a><b/></a></r>)//b/ancestor::*[last()]",
    "<r><a/>mid<b/></r>/node()",
    "count(<r><a><a/></a></r>//a)",
    # set operations
    "let $r := <r><a/><b/></r> return count(($r/a, $r/b) union $r/*)",
    "let $r := <r><a/><b/></r> return ($r/* except $r/b)/name(.)",
    "let $r := <r><a/><b/></r> return ($r/* intersect $r/a)/name(.)",
    # string / aggregate builtins
    "string-join(for $i in 1 to 3 return string($i), '-')",
    "sum((1, 2, 3.5)), avg((2, 4)), min((3, 1)), max((3, 1))",
    "concat('a', 'b', 'c'), substring('hello', 2, 3), upper-case('x')",
    "distinct-values((1, 2, 1, 'a', 'a'))",
    # user functions, recursion, defaults of the function scope
    "declare function local:twice($x) { $x * 2 }; local:twice(21)",
    (
        "declare function local:down($n as xs:integer) as xs:integer* "
        "{ if ($n = 0) then () else ($n, local:down($n - 1)) }; "
        "local:down(4)"
    ),
    (
        "declare function local:even($n) { if ($n = 0) then true() else local:odd($n - 1) }; "
        "declare function local:odd($n) { if ($n = 0) then false() else local:even($n - 1) }; "
        "local:even(10)"
    ),
    # declared globals referencing each other
    "declare variable $base := 10; declare variable $top := $base * 4; $top - $base",
]


@pytest.mark.parametrize("source", EXPRESSIONS)
def test_expression_parity(source):
    assert_parity(source)


# -- e01: the sequence-indexing quirk table -----------------------------------

E01_ROWS = [
    ("1", "2", "3"),
    ("1", '(2, "2a")', "4"),
    ("1", "()", "3"),
    ('("1a","1b")', "2", "3"),
    ("1", "()", '("3a","3b")'),
    ("()", "(2)", "()"),
    ("1", 'attribute y {"why?"}', "2"),
]


@pytest.mark.parametrize("x,y,z", E01_ROWS)
def test_e01_sequence_indexing_parity(x, y, z):
    prefix = f"let $x := {x} let $y := {y} let $z := {z} return "
    assert_parity(prefix + "($x, $y, $z)[2]")
    assert_parity(prefix + "<el>{$x}{$y}{$z}</el>")


# -- e02: attribute folding under every duplicate mode ------------------------

E02_SOURCES = [
    "let $x := attribute troubles {1} return <el> {$x} </el>",
    (
        "let $a := attribute a {1} let $b := attribute a {2} "
        "let $c := attribute b {3} return <el> {$a}{$b}{$c} </el>"
    ),
    'let $x := attribute troubles {1} return <el> "doom" {$x} </el>',
]


@pytest.mark.parametrize("source", E02_SOURCES)
@pytest.mark.parametrize("mode", ["last", "first", "keep", "error"])
def test_e02_attribute_folding_parity(source, mode):
    assert_parity(source, EngineConfig(duplicate_attribute_mode=mode))


# -- the error corpus: identical classes, codes, and messages -----------------

ERROR_SOURCES = [
    "$missing",  # XPST0008
    ".",  # XPDY0002: absent context item
    "(1,2) + 3",  # XPTY0004 from the arithmetic operator
    "1 + <a>x</a>",  # promotion failure
    "-'text'",  # unary type error
    "(1,2) eq 3",  # value comparison cardinality
    "('a','b') is <x/>",  # node comparison on non-singletons
    "1/child::a",  # XPTY0019: step over an atomic
    "<a>{2}</a>/(1, <b/>)",  # XPTY0018: mixed step result
    "(1, 2) to 3",  # 'to' cardinality
    "let $x := attribute a {1} return <el>x{$x}</el>",  # XQTY0024
    "xs:integer('nope')",  # FORG0001
    "xs:integer(1, 2)",  # XPST0017: constructor arity
    "unknown:fn(1)",  # XPST0017
    "if (('x', 'y')) then 1 else 2",  # FORG0006 from EBV
    "1 div 0",  # FOAR0001
    "error('QQ')",  # FOER0000 user error
    "let $a := attribute a {1} return document { $a }",  # attr in document
    "5 treat as xs:string",  # XPDY0050
    "() cast as xs:integer",  # empty cast without '?'
    (
        "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)"
    ),  # FOER0000 recursion guard
    (
        "declare function local:typed($x as xs:integer) { $x }; local:typed('a')"
    ),  # XPTY0004 argument type check
]


@pytest.mark.parametrize("source", ERROR_SOURCES)
def test_error_parity(source):
    result = assert_parity(source)
    assert result[0] == "error", source


#: each row names where the algebra meets the missing variable: a VarPlan,
#: or the closure compiler's variable inside a typed function it compiles.
GALAX_MISSING_VARIABLES = [
    pytest.param("$missing", "Var($missing)", id="$missing"),
    pytest.param("$glx", "Var($glx)", id="$glx"),
    pytest.param(
        "declare function local:f($x as xs:integer) { $missing }; local:f(1)",
        "[typed signature]",
        id="compiled",
    ),
]


@pytest.mark.parametrize("source, reached", GALAX_MISSING_VARIABLES)
def test_galax_diagnostics_parity(source, reached):
    config = EngineConfig(galax_diagnostics=True)
    result = assert_parity(source, config)
    assert result[3] == "Internal_Error: Variable '$glx:dot' not found."
    assert reached in XQueryEngine(config).compile(source).explain()["text"]


def test_recursion_limit_parity():
    source = "declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) }; local:f(50)"
    ok = assert_parity(source, EngineConfig(max_recursion_depth=100))
    assert ok[0] == "ok"
    failed = assert_parity(source, EngineConfig(max_recursion_depth=10))
    assert failed[0] == "error" and failed[2] == "FOER0000"


# -- the boundary between compiled closures and the treewalk ------------------
# The closure compiler compiles the forms that run hot and hands every other
# form to the treewalk.  Each row nests a handed-over form (cast, castable,
# treat, typeswitch) inside a compiled form that reuses one mutable focus or
# scope: a predicate applier, a FLWOR's order by, a quantifier, a recursive
# user function.  A user-function body is always a closure-compiler
# fallback, so wrapping a row in one makes the compiled form really run.

BOUNDARY_SOURCES = [
    "(1 to 6)[(. cast as xs:integer) mod 2 = 0]",
    "<r><a n='1'/><a n='x'/><a n='3'/></r>/a[@n castable as xs:integer]/@n/string()",
    "for $x in (3, 1, 2) order by $x treat as xs:integer descending return $x",
    "for $x in (3, 'a') order by $x treat as xs:integer return $x",  # XPDY0050
    "some $x in ('a', '1') satisfies ($x castable as xs:integer)",
    "every $x in ('2', 'b') satisfies ($x castable as xs:integer)",
]

CAST_ERROR_ROW = "for $i in (1, 'x') return $i cast as xs:integer"  # FORG0001

TYPESWITCH_RECURSION = (
    "declare function local:f($n, $stop) {{ typeswitch ($n) "
    "case xs:integer return if ($n = $stop) then $n else local:f($n + 1, $stop) "
    "default return 0 }}; local:f(0, {stop})"
)


def _in_function(source):
    return f"declare function local:body() {{ {source} }}; local:body()"


def _located_outcome(query, backend):
    """``run_outcome`` plus the error's line and column."""
    try:
        return ("ok", serialize_result(query.run(backend=backend)))
    except XQueryError as error:
        return (
            "error",
            type(error).__name__,
            error.code,
            error.bare_message,
            error.line,
            error.column,
        )


def assert_located_parity(source, config=None):
    """Same outcome, error location included, on every backend; and the
    algebra ran the body through the closure compiler."""
    query = XQueryEngine(config or EngineConfig()).compile(source)
    outcomes = {backend: _located_outcome(query, backend) for backend in BACKENDS}
    for backend in BACKENDS:
        assert outcomes[backend] == outcomes["treewalk"], (backend, source)
    assert query.algebra._compiler is not None, source
    return outcomes["treewalk"]


@pytest.mark.parametrize("source", BOUNDARY_SOURCES)
def test_treewalk_form_inside_compiled_form_parity(source):
    assert_located_parity(_in_function(source))


@pytest.mark.parametrize("galax", [False, True], ids=["spec", "galax"])
def test_treewalk_cast_error_inside_compiled_flwor_parity(galax):
    config = EngineConfig(galax_diagnostics=galax)
    result = assert_located_parity(_in_function(CAST_ERROR_ROW), config)
    assert result[2] == "FORG0001", result
    assert (result[4] is None) == galax, result


def test_typeswitch_recursion_limit_parity():
    """A recursive function whose body is a typeswitch stops at the same
    depth, with the same message and location, on both backends."""
    config = EngineConfig(max_recursion_depth=30)
    outcomes = [
        assert_located_parity(TYPESWITCH_RECURSION.format(stop=stop), config)
        for stop in range(27, 32)
    ]
    assert outcomes[0] == ("ok", "27")
    assert outcomes[-1][:3] == ("error", "XQueryDynamicError", "FOER0000")
    assert outcomes[-1][4] is not None


# -- trace semantics and the trace-deletion optimizer bug ---------------------

TRACE_SOURCE = "let $d := trace('probe', 9) return trace('live', 1)"


def test_trace_parity():
    result = assert_parity(TRACE_SOURCE, EngineConfig(optimize=False))
    assert result[2] == ("probe 9", "live 1")


TRACING_HELPER = 'declare function local:f($i) { trace("p", string($i)) }; '


def test_trace_behind_a_call_in_an_inner_for_source_parity():
    # a source that reaches trace through a call is not hoisted out of the
    # tuple loop: the trace prints once per outer tuple, as in the treewalk.
    source = TRACING_HELPER + "for $a in (1,2,3) for $b in local:f(7) return $b"
    result = assert_parity(source, EngineConfig(optimize=False))
    assert result[2] == ("p 7",) * 3


def test_trace_behind_a_call_in_a_join_probe_parity():
    # a probe that reaches trace through a call is no hash-join key; the
    # inline form of the same probe already read 6 traces on both backends.
    from repro.xmlio import parse_document

    doc = parse_document('<r><x id="1"/><x id="2"/><x id="3"/></r>')
    loop = "for $a in (1,2) for $n in $d//x[@id eq {}] return string($n/@id)"
    for probe in ("local:f($a)", 'trace("p", string($a))'):
        source = "declare variable $d external; " + TRACING_HELPER + loop.format(probe)
        result = assert_parity(source, variables={"d": doc})
        assert result[1:] == ("1 2", ("p 1",) * 3 + ("p 2",) * 3)


def test_trace_deletion_parity():
    # the buggy dead-code pass deletes the dead let's trace identically
    # under both backends (it runs on the shared AST, but parity proves the
    # closure compiler honours the post-optimizer tree).
    result = assert_parity(
        TRACE_SOURCE, EngineConfig(optimize=True, trace_is_dead_code=True)
    )
    assert "probe 9" not in result[2]


# -- external variables and host coercion -------------------------------------

def test_external_variable_parity():
    source = (
        "declare variable $xs external; declare variable $n external; "
        "sum($xs) * $n"
    )
    assert_parity(source, variables={"xs": [1, 2, 3], "n": 2})
    assert_parity(source, variables={"xs": (1, (2, 3)), "n": 2})


def test_context_item_parity():
    from repro.xmlio import parse_document

    doc = parse_document("<r><v>1</v><v>2</v></r>")
    assert_parity("sum(/r/v)", context_item=doc)
    assert_parity("//v[2]/text()", context_item=doc)


# -- end to end: the paper's workloads under both backends --------------------

def _docgen_fingerprint(backend):
    model = make_it_model(scale=3)
    generator = XQueryDocumentGenerator(model, config=EngineConfig(backend=backend))
    result = generator.generate(system_context_template())
    return (
        serialize(result.document),
        [repr(p) for p in result.problems],
        [repr(entry) for entry in result.toc],
        result.visited_node_ids,
    )


def test_docgen_end_to_end_parity():
    treewalk = _docgen_fingerprint("treewalk")
    for backend in BACKENDS[1:]:
        assert _docgen_fingerprint(backend) == treewalk, backend


def test_querycalc_end_to_end_parity():
    model = make_it_model(scale=6)
    query = parse_query_xml(
        '<query><start type="User"/><follow relation="uses"/>'
        '<collect sort-by="label"/></query>'
    )
    runs = {
        backend: XQueryCalculusBackend(
            model, engine=XQueryEngine(EngineConfig(backend=backend))
        ).run(query)
        for backend in BACKENDS
    }
    for backend in BACKENDS[1:]:
        assert runs[backend] == runs["treewalk"], backend


CALCULUS_PARITY_QUERIES = [
    # fleet-wide parity: native, via-XQuery on both backends, and the
    # service cold + warm (the warm path must serve from the result cache).
    '<query><start type="User"/><follow relation="uses"/>'
    '<collect sort-by="label"/></query>',
    '<query><start all="true"/><collect sort-by="label" order="descending"'
    ' distinct="false"/></query>',
    '<query trace="parity-probe"><start type="Server"/>'
    '<follow relation="runs" direction="backward"/><collect/></query>',
    '<query><start type="User"/><filter-property name="label" op="contains"'
    ' value="user"/><collect sort-by="label"/></query>',
]


@pytest.mark.parametrize("xml", CALCULUS_PARITY_QUERIES)
def test_querycalc_service_parity(xml):
    model = make_it_model(scale=5)
    outcomes = assert_calculus_parity(parse_query_xml(xml), model)
    cold, warm = outcomes["service-cold"], outcomes["service-warm"]
    assert cold[0] == "ok" and warm[0] == "ok"
    assert warm[3], "second identical request must hit the result cache"
    assert warm[2] == cold[2], "warm hit must replay the cold traces"


def test_querycalc_service_trace_replay():
    # the traced query records fn:trace output cold; the warm cache hit
    # must replay the identical messages without re-running the program.
    model = make_it_model(scale=4)
    query = parse_query_xml(
        '<query trace="replayed"><start type="User"/><collect/></query>'
    )
    outcomes = assert_calculus_parity(query, model)
    cold = outcomes["service-cold"]
    assert cold[2], "traced query must record trace output on the cold run"
    assert outcomes["service-warm"][2] == cold[2]


def test_exported_model_query_parity():
    # query a real exported AWB model through paths, predicates, and axes.
    root = export_model(make_it_model(scale=4))
    for source in [
        "count($model//object)",
        "for $o in $model//object[@type='User'] return string($o/@id)",
        "$model//object[value[@name='label']]/value[@name='label']/text()",
    ]:
        assert_parity(
            "declare variable $model external; " + source,
            variables={"model": root},
        )
