"""One call-resolution rule: what ``f(...)`` names is decided once.

:func:`repro.xquery.functions.resolve_call` says whether a call is an
``xs:`` constructor, a declared user function, a builtin or unknown; the
treewalk, the closure compiler, lowering, ``Effects`` and the static
analyzer all ask it.  Each spelling below must therefore come out the
same everywhere:

* the treewalk and the algebra return the same value or error code;
* :func:`check_module` reports XPST0017 exactly when the runtime raises it;
* ``Effects.of`` keeps a dead ``let`` exactly when the E8 engines print
  (or raise) what the unoptimized run does.

It also pins the analyzer fix: an undeclared ``local:`` call is unknown,
not the builtin of the same local name, so it draws XQL008 and nothing
else; and a declared ``local:true``, ``local:position`` or second arity is
the user's function to every lint rule and to the type pass.

Whether an expression may run once instead of once per item is decided
by ``Effects`` alone: a hash-join probe or a closure-compiler predicate
right side is evaluated once only when ``Effects.of`` finds nothing in it,
neither ``fn:trace``/``fn:error`` nor a read of the focus.
"""

import builtins

import pytest

from repro.collections import DocumentStore, SearchRequest
from repro.testing.oracle import xquery_outcomes
from repro.xquery import EngineConfig, TraceLog, XQueryEngine, analyze_source
from repro.xquery import ast
from repro.xquery.analysis.types import check_module, infer_body_type
from repro.xquery.api import BACKENDS
from repro.xquery.compiler import ValueComparePred, classify_predicate
from repro.xquery.errors import XQueryError
from repro.xquery.functions import resolve_call
from repro.xquery.optimizer import Effects
from repro.xquery.parser import parse_query

DECLARED_COUNT = "declare function local:count($x) { 7 };\n"
DECLARED_F = "declare function local:f($x) { $x };\n"
DECLARED_TRACE = 'declare function local:trace($l, $v) { ($v, "shadowed") };\n'
DECLARED_NAME = (
    'declare function local:name() { "b" };\n'
    'declare function local:name($n) { "z" };\n'
)
DECLARED_POSITION = "declare function local:position() { 1 };\n"
DECLARED_STRING = (
    'declare function local:string($v) { let $t := trace($v, "p") return concat($v, "") };\n'
)

PAIRS = '<r><a k="1"/><a k="2"/><b k="1"/><b k="2"/><b k="2"/></r>'


def probe(condition, op="eq"):
    """A FLWOR whose second ``for`` joins on *condition* when it may."""
    return (
        f"let $d := {PAIRS}\n"
        "for $x in $d/a\n"
        f"for $y in $d/b[@k {op} {condition}]\n"
        "return string($y/@k)"
    )


def hoist(prolog=""):
    """A predicate the closure compiler (under a constructor) may run with
    its right side evaluated once."""
    return (
        f'{prolog}let $d := <r><a id="1"/><a id="2"/><a id="3"/></r> let $k := "2"\n'
        "return <o>{ $d/a[@id eq string($k)] }</o>"
    )


#: (label, source, what the call resolves to)
SPELLINGS = [
    ("count", "count((1, 2, 3))", "builtin"),
    ("fn:count", "fn:count((1, 2, 3))", "builtin"),
    ("undeclared local:count", "local:count((1, 2, 3))", "unknown"),
    ("count shadowed", DECLARED_COUNT + "count((1, 2))", "user"),
    ("fn:count shadowed", DECLARED_COUNT + "fn:count((1, 2))", "user"),
    ("local:count declared", DECLARED_COUNT + "local:count((1, 2))", "user"),
    ("local:f wrong arity", DECLARED_F + "local:f(1, 2)", "unknown"),
    ("local:f right arity", DECLARED_F + "local:f(1)", "user"),
    ("xs:integer/0", "xs:integer()", "constructor"),
    ("xs:integer/1", 'xs:integer("3")', "constructor"),
    ("xs:integer/2", 'xs:integer("3", "4")', "constructor"),
    ("unknown foo", "foo()", "unknown"),
    ("trace", 'trace("t", 1)', "builtin"),
    ("fn:trace", 'fn:trace("t", 1)', "builtin"),
    ("undeclared local:trace", 'local:trace("t", 1)', "unknown"),
    ("trace/0", "trace()", "unknown"),
    ("trace shadowed", DECLARED_TRACE + 'trace("t", 1)', "user"),
    ("name()", '<a><b/><c/></a>/*[name() eq "b"]', "builtin"),
    ("name(.)", '<a><b/><c/></a>/*[name(.) eq "b"]', "builtin"),
    ("name() shadowed", DECLARED_NAME + '<a><b/><c/></a>/*[name() eq "b"]', "user"),
    ("name(.) shadowed", DECLARED_NAME + '<a><b/><c/></a>/*[name(.) eq "b"]', "user"),
    # the closure compiler's [name(.) eq ...] fast path, under a constructor
    ("name(.) compiled", '<w>{ <a><b/><c/></a>/*[name(.) eq "b"] }</w>', "builtin"),
    (
        "name(.) compiled shadowed",
        DECLARED_NAME + '<w>{ <a><b/><c/></a>/*[name(.) eq "b"] }</w>',
        "user",
    ),
    ("position() in a probe", probe("string($x/@k + position() - 1)"), "builtin"),
    ("last() in a probe", probe("string($x/@k + last() - 3)"), "builtin"),
    (
        "position() shadowed in a probe",
        DECLARED_POSITION + probe("string($x/@k + position() - 1)"),
        "user",
    ),
]


def _last_call(module):
    """The call the spelling is about: the last one in the module body."""
    calls = []

    def visit(node):
        if isinstance(node, ast.FunctionCall) and node.name != "string":
            calls.append(node)

    ast.walk(module.body, visit)
    return calls[-1]


@pytest.mark.parametrize("label,source,kind", SPELLINGS, ids=[row[0] for row in SPELLINGS])
def test_both_backends_agree(label, source, kind):
    outcomes = xquery_outcomes(source)
    for backend in BACKENDS:
        assert outcomes[backend] == outcomes["treewalk"], (backend, label)


@pytest.mark.parametrize("label,source,kind", SPELLINGS, ids=[row[0] for row in SPELLINGS])
def test_check_module_reports_xpst0017_exactly_when_the_runtime_raises_it(label, source, kind):
    outcome = xquery_outcomes(source)["treewalk"]
    raised = outcome[0] == "error" and outcome[2] == "XPST0017"
    reported = any(issue.code == "XPST0017" for issue in check_module(parse_query(source)))
    assert reported == raised, (label, outcome)


@pytest.mark.parametrize("label,source,kind", SPELLINGS, ids=[row[0] for row in SPELLINGS])
def test_the_resolver_names_the_callee(label, source, kind):
    module = parse_query(source)
    assert resolve_call(_last_call(module), ast.function_table(module)).kind == kind


#: probes that read the focus, which ``Effects`` reports.
FOCUS_PROBES = [
    ("max over the focus", probe("max(($x/@k, @k))")),
    ("a relative step", probe("($x/@k, @k)", "=")),
    ("a rooted path", probe("($x/@k, /r/a[2]/@k)", "=")),
    ("name()", probe("concat($x/@k, substring(name(), 9))")),
    ("string()", probe("concat($x/@k, substring(string(), 9))")),
]


def test_probes_with_a_focus_call_do_not_join():
    for source, joins in [
        (probe("$x/@k"), True),
        (probe("string($x/@k)"), True),
        (probe("string($x/@k + position() - 1)"), False),
        (probe("string($x/@k + last() - 3)"), False),
        (DECLARED_POSITION + probe("string($x/@k + position() - 1)"), True),
    ] + [(source, False) for _, source in FOCUS_PROBES]:
        text = XQueryEngine(EngineConfig(backend="algebra")).compile(source).explain()["text"]
        assert ("HashJoin" in text) == joins, source


# -- one evaluate-once rule -----------------------------------------------

#: (label, source): values, error codes and traces agree on both backends.
EVALUATE_ONCE = FOCUS_PROBES + [
    ("string shadowed by a tracing helper", hoist(DECLARED_STRING)),
    # controls
    ("a plain probe", probe("$x/@k")),
    ("string of a plain probe", probe("string($x/@k)")),
    ("string", hoist()),
]


@pytest.mark.parametrize("label,source", EVALUATE_ONCE, ids=[row[0] for row in EVALUATE_ONCE])
def test_evaluate_once_rows_agree_on_both_backends(label, source):
    outcomes = xquery_outcomes(source)
    for backend in BACKENDS:
        assert outcomes[backend] == outcomes["treewalk"], (backend, label)


def test_a_shadowed_string_traces_once_per_candidate_on_both_backends():
    query = XQueryEngine().compile(hoist(DECLARED_STRING))
    for backend in BACKENDS:
        trace = TraceLog()
        query.run(backend=backend, trace=trace)
        assert trace.messages == ["2 p"] * 3, backend


@pytest.mark.parametrize(
    "prolog,fast", [("", True), (DECLARED_STRING, False)], ids=["string", "string shadowed"]
)
def test_the_compiler_fast_path_asks_effects(prolog, fast):
    module = parse_query(hoist(prolog))
    nodes = []
    ast.walk(module.body, nodes.append)
    (comparison,) = [node for node in nodes if isinstance(node, ast.Comparison)]
    functions = ast.function_table(module)
    shape = classify_predicate(comparison, functions, Effects(functions))
    assert isinstance(shape, ValueComparePred) == fast


@pytest.mark.parametrize(
    "source,focus",
    [
        (".", True),
        ("@k", True),
        ("a/b", True),
        ("/r", True),
        ("//a", True),
        ("position()", True),
        ("fn:last()", True),
        ("string()", True),
        ("name()", True),
        ("number()", True),
        ("concat($x, normalize-space())", True),
        ("$x/@k", False),
        ("$x/string()", False),
        ("$x[. = 1]", False),
        ("$x/a[position() = last()]", False),
        ("string($x)", False),
        ("true()", False),
        ("local:f()", False),
        (DECLARED_NAME + "name()", False),
    ],
)
def test_effects_report_a_read_of_the_focus(source, focus):
    module = parse_query("declare function local:f() { string() };\n" + source)
    effects = Effects(ast.function_table(module)).of(module.body)
    assert ("focus" in effects) == focus, effects


# -- the analyzer resolves calls as the runtime does -----------------------


def test_a_declared_true_is_no_constant_condition():
    source = "declare function local:true() { false() };\nif (local:true()) then 1 else 2"
    assert XQueryEngine().evaluate(source) == [2]
    assert not [finding for finding in analyze_source(source) if finding.code == "XQL005"]
    assert [finding.code for finding in analyze_source("if (true()) then 1 else 2")] == ["XQL005"]


def test_every_unused_arity_is_flagged():
    source = (
        "declare function local:f($x) { $x };\n"
        "declare function local:f($x, $y) { $y };\n"
        "local:f(1)"
    )
    unused = [
        (finding.line, finding.message)
        for finding in analyze_source(source)
        if finding.code == "XQL005"
    ]
    assert unused == [(2, "function local:f() is never called")]


def test_a_declared_position_is_no_positional_filter():
    source = "declare function local:position() { 2 };\n(10, 20, 30)[local:position() = 2]"
    assert XQueryEngine().evaluate(source) == [10, 20, 30]
    assert infer_body_type(parse_query(source)).describe() == "xs:integer*"
    assert infer_body_type(parse_query("(10, 20, 30)[position() = 2]")).describe() == "xs:integer?"


# -- the analyzer reads an unknown call as item()* ---------------------------


@pytest.mark.parametrize(
    "source",
    ["local:true() + 1", "(local:count((1, 2)))[2]"],
)
def test_an_undeclared_local_call_draws_only_xql008(source):
    codes = [finding.code for finding in analyze_source(source)]
    assert codes == ["XQL008"], codes


@pytest.mark.parametrize(
    "source,described",
    [
        ("local:true()", "item()*"),
        ("count((1, 2), 3)", "item()*"),
        ("fn:true()", "xs:boolean"),
        (DECLARED_COUNT + "count(1)", "item()*"),
    ],
)
def test_body_types_follow_the_resolution(source, described):
    assert infer_body_type(parse_query(source)).describe() == described


# -- Effects against the E8 engines ----------------------------------------

E8_ENGINES = {
    "galax 2004 (buggy dce)": EngineConfig(optimize=True, trace_is_dead_code=True),
    "fixed optimizer": EngineConfig(optimize=True, trace_is_dead_code=False),
    "no optimizer": EngineConfig(optimize=False),
}

TRACE_SPELLINGS = [
    ("trace", "", 'trace("t", 1)'),
    ("fn:trace", "", 'fn:trace("t", 1)'),
    ("undeclared local:trace", "", 'local:trace("t", 1)'),
    ("trace/0", "", "trace()"),
    ("trace shadowed", DECLARED_TRACE, 'trace("t", 1)'),
    ("helper", 'declare function local:h() { trace("t", 1) };\n', "local:h()"),
]


def _traced(config, source):
    trace = TraceLog()
    try:
        value = XQueryEngine(config).evaluate(source, trace=trace)
    except XQueryError as error:
        return ("error", error.code, tuple(trace.messages))
    return ("ok", repr(value), tuple(trace.messages))


@pytest.mark.parametrize(
    "label,prolog,call", TRACE_SPELLINGS, ids=[row[0] for row in TRACE_SPELLINGS]
)
def test_effects_agree_with_the_e8_engines(label, prolog, call):
    source = f"{prolog}let $d := {call} return 2"
    module = parse_query(source)
    effects = Effects(ast.function_table(module)).of(module.body.clauses[0].value)
    unoptimized = _traced(E8_ENGINES["no optimizer"], source)
    for name, trace_is_dead_code in (
        ("galax 2004 (buggy dce)", True),
        ("fixed optimizer", False),
    ):
        observable = {"error"} if trace_is_dead_code else {"trace", "error"}
        kept = bool(effects & observable)
        expected = unoptimized if kept else ("ok", "[2]", ())
        assert _traced(E8_ENGINES[name], source) == expected, (label, name, effects)
    if unoptimized[2]:  # the call really prints: E8's matrix row shape
        assert "trace" in effects
        assert _traced(E8_ENGINES["fixed optimizer"], source)[2]
        assert not _traced(E8_ENGINES["galax 2004 (buggy dce)"], source)[2]


# -- ft:score and ft:kwic run no import statement per call -----------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_search_and_kwic_requests_run_no_import(monkeypatch, backend):
    store = DocumentStore()
    for n in range(4):
        store.put_text(f"docs/d{n}.xml", f"<doc><p>naive text {n} naive</p></doc>")
    engine = XQueryEngine(EngineConfig(backend=backend))
    programs = [
        engine.compile(SearchRequest(kind=kind, collection="docs/", phrase="naive").source())
        for kind in ("search", "kwic")
    ]
    for program in programs:  # warm: a first call may import once
        assert program.run(collections=store)
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    for program in programs:
        program.run(collections=store)
    monkeypatch.undo()
    assert imports == []
