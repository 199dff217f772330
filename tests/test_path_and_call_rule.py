"""One path rule and one call rule: every fast path starts, and every fast
user-function call enters, through one function each.

The closure compiler and the algebra executor split a path with
``repro.xquery.compiler.path_pairs``, start it with ``start_path`` (the
root of an anchored path, the context item, or the lead's items) and run
its steps with ``run_steps``.  They enter every user-function call through
``call_user_function``: the FOER0000 depth guard, the deadline check, the
arguments in order with their XPTY0004, the function scope, the body and
the result's XPTY0004.  The treewalk is the reference.

Each case runs on three engines: the treewalk, the executor (the case as
written, which explain shows as a ``Scan`` or an ``InlineCall`` where the
algebra lowers it) and the compiler (the case inside ``if (true()) then
(...) else ()``, a form the algebra hands to the compiler whole, so the
compiled path keeps the focus a function body would not have).  Node
identities and order, error class, code and message, and ``fn:trace``
output must agree.

The memo rows run constructed bases in a loop, with and without a shared
``LRU``: a scan or join build memoized for one constructed node must never
answer for a later node that reuses its id.
"""

import itertools

import pytest

import repro.xquery.context as context_module
from repro.lru import LRU
from repro.xdm import Node
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.errors import XQueryError

COMPILER_FORM = "if (true()) then ({body}) else ()"

DOCUMENT = parse_document(
    '<r><a k="1"><a k="2"><b/>x</a><b k="1"/></a><c/><a k="3"><b/></a></r>'
)
#: an element built by a query: it has no document, so it is its own root
CONSTRUCTED = XQueryEngine().compile('<r><a k="1"><a/><b/></a><b/><a/></r>').run()[0]

_R = DOCUMENT.children[0]
_A1, _A3 = _R.children_by_name("a")
_A2 = _A1.children_by_name("a")[0]

#: name -> the context item a case runs under (None: absent)
CONTEXTS = {
    "document": DOCUMENT,
    "constructed": CONSTRUCTED,
    "absent": None,
    "atomic": 1,
}

#: name -> the value of ``$x``, a path's lead
LEADS = {
    "empty": [],
    "one": [_A1],
    "many": [_A3, _A1, _A2, _R],  # out of order, nested
    "atomic": [1, 2],
    "mixed": [_A1, 1],
}

#: case -> (path, context, lead, marker the executor's explain shows)
PATH_CASES = {
    "root-child-document": ("/r/a", "document", "one", "Scan("),
    "root-descendant-document": ("//a", "document", "one", "Scan("),
    "root-descendant-step-document": ("//a/b", "document", "one", "Scan("),
    "root-child-descendant-document": ("/r//b[@k]", "document", "one", "Scan("),
    "bare-root-document": ("/", "document", "one", "Scan("),
    "root-child-constructed": ("/a", "constructed", "one", "Scan("),
    "root-descendant-constructed": ("//a", "constructed", "one", "Scan("),
    "bare-root-constructed": ("/", "constructed", "one", "Scan("),
    "root-absent": ("/r", "absent", "one", "Scan("),
    "bare-root-absent": ("/", "absent", "one", "Scan("),
    "root-atomic": ("/a", "atomic", "one", "Scan("),
    "root-descendant-atomic": ("//a", "atomic", "one", "Scan("),
    "context-steps": ("a/b", "constructed", "one", "Scan("),
    "context-descendant": ("a//a", "constructed", "one", "Scan("),
    "context-absent": ("a", "absent", "one", "Scan("),
    "context-atomic": ("a", "atomic", "one", "Scan("),
    "lead-empty": ("$x/a", "document", "empty", "Scan("),
    "lead-one": ("$x/a/b", "document", "one", "Scan("),
    "lead-many": ("$x/b", "document", "many", "Scan("),
    "lead-many-descendant": ("$x//b", "document", "many", "Scan("),
    "lead-many-parent": ("$x/..", "document", "many", "Scan("),
    "lead-atomic": ("$x/a", "document", "atomic", "Scan("),
    "lead-mixed": ("$x/a", "document", "mixed", "Scan("),
    "lead-sequence": ("($x, $x)/b", "document", "many", "Scan("),
    "string-step": ("$x/string()", "document", "many", "[non-axis path step]"),
    "string-step-atomic": ("$x/string()", "document", "atomic", "[non-axis path step]"),
    "mixed-step": ("$x/(b, 1)", "document", "one", "[non-axis path step]"),
    "root-non-axis-step": ("//(b)", "document", "one", "[non-axis path step]"),
}

_CHAIN = (
    "declare function local:f0($x) { $x };"
    " declare function local:f1($x) { local:f0(trace('f1', $x)) };"
    " declare function local:f2($x) { local:f1(trace('f2', $x)) };"
    " declare function local:f3($x) { local:f2(trace('f3', $x)) };"
    " declare function local:f4($x) { local:f3(trace('f4', $x)) };"
)
_RECURSIVE = (
    "declare function local:r($n) {"
    " if ($n eq 0) then 0 else local:r(trace('n', $n - 1)) };"
)
_TYPED = "declare function local:t($a as xs:integer) as xs:string {{ {body} }};"

#: case -> (source, config overrides, marker the executor's explain shows,
#: or None when the algebra cannot inline the call)
CALL_CASES = {
    "chain": (_CHAIN + " local:f4(1)", {}, "InlineCall"),
    "chain-past-depth": (_CHAIN + " local:f4(1)", {"max_recursion_depth": 3}, "InlineCall"),
    "recursion": (_RECURSIVE + " local:r(6)", {}, None),
    "recursion-past-depth": (_RECURSIVE + " local:r(6)", {"max_recursion_depth": 4}, None),
    "argument-order": (
        "declare function local:f($a, $b) { ($b, $a) };"
        " local:f(trace('a', 1), trace('b', 2))",
        {},
        "InlineCall",
    ),
    "node-argument": (
        "declare function local:f($n) { $n/a/b };"
        " local:f(trace('n', $d/r/a))",
        {},
        "InlineCall",
    ),
    "argument-mismatch-checked": (
        _TYPED.format(body="string($a)") + " local:t('x')", {}, None
    ),
    "argument-mismatch-unchecked": (
        _TYPED.format(body="string($a)") + " local:t('x')",
        {"type_check_calls": False},
        "InlineCall",
    ),
    "result-mismatch-checked": (_TYPED.format(body="$a") + " local:t(1)", {}, None),
    "result-mismatch-unchecked": (
        _TYPED.format(body="$a") + " local:t(1)",
        {"type_check_calls": False},
        "InlineCall",
    ),
    "typed-match": (_TYPED.format(body="string($a)") + " local:t(trace('a', 7))", {}, None),
}

#: case -> (source, clock ticks before the deadline, marker): every call
#: checks the deadline once, so the trace shows the call it stopped at.
DEADLINE_CASES = {
    "chain": (_CHAIN + " local:f4(1)", 3, "InlineCall"),
    "recursion": (_RECURSIVE + " local:r(20)", 5, None),
}


def _outcome(query, backend, context_item=None, variables=None, **run):
    trace = TraceLog()
    try:
        result = query.run(
            backend=backend,
            context_item=context_item,
            variables=variables,
            trace=trace,
            **run,
        )
    except XQueryError as error:
        return (
            "error",
            type(error).__name__,
            error.code,
            error.bare_message,
            trace.messages,
        )
    items = [id(item) if isinstance(item, Node) else item for item in result]
    return ("ok", items, trace.messages)


def _forms(source, marker, config=None):
    """The case's (executor, compiler) queries, each checked to run on the
    engine it names."""
    engine = XQueryEngine(config or EngineConfig(compile_cache_size=0))
    plain = engine.compile(source)
    prolog, _, body = source.rpartition(";")
    prolog = prolog + ";" if prolog else ""
    compiled = engine.compile(prolog + COMPILER_FORM.format(body=body))
    if marker is not None:
        assert marker in plain.explain()["text"], source
    explain = compiled.explain()
    assert explain["fallback"] and explain["text"].startswith("Eval(IfExpr"), source
    return plain, compiled


def _assert_three_engines_agree(source, marker, config=None, **run):
    plain, compiled = _forms(source, marker, config)
    reference = _outcome(plain, "treewalk", **run)
    assert _outcome(plain, "algebra", **run) == reference, ("executor", source)
    assert _outcome(compiled, "algebra", **run) == reference, ("compiler", source)
    return reference


#: case -> the reference outcome's (code, message, trace), for the rows
#: that raise; every other row returns.
EXPECTED_ERRORS = {
    "root-absent": ("XPDY0002", "'/' requires a node as the context item", []),
    "bare-root-absent": ("XPDY0002", "'/' requires a node as the context item", []),
    "root-atomic": ("XPDY0002", "'/' requires a node as the context item", []),
    "root-descendant-atomic": ("XPDY0002", "'/' requires a node as the context item", []),
    "context-absent": ("XPDY0002", "context item is absent in a path step", []),
    "context-atomic": ("XPTY0019", "a path step was applied to an atomic value", []),
    "lead-atomic": ("XPTY0019", "a path step was applied to an atomic value", []),
    "lead-mixed": ("XPTY0019", "a path step was applied to an atomic value", []),
    "mixed-step": ("XPTY0018", "a path step produced both nodes and atomic values", []),
    "chain-past-depth": (
        "FOER0000",
        "recursion depth limit exceeded calling local:f1()",
        ["f4 1", "f3 1"],
    ),
    "recursion-past-depth": (
        "FOER0000",
        "recursion depth limit exceeded calling local:r()",
        ["n 5", "n 4", "n 3"],
    ),
    "argument-mismatch-checked": (
        "XPTY0004",
        "argument $a of local:t() does not match declared type xs:integer",
        [],
    ),
    "result-mismatch-checked": (
        "XPTY0004",
        "result of local:t() does not match declared type xs:string",
        [],
    ),
}

#: case -> the reference's items and trace, for rows that return atomics
EXPECTED_VALUES = {
    "lead-empty": ([], []),
    "chain": ([1], ["f4 1", "f3 1", "f2 1", "f1 1"]),
    "argument-order": ([2, 1], ["a 1", "b 2"]),
    "argument-mismatch-unchecked": (["x"], []),
    "result-mismatch-unchecked": ([1], []),
    "typed-match": (["7"], ["a 7"]),
}


def _assert_expected(case, reference):
    if case in EXPECTED_ERRORS:
        assert reference[0] == "error" and reference[2:] == EXPECTED_ERRORS[case]
    else:
        assert reference[0] == "ok", reference
        if case in EXPECTED_VALUES:
            assert reference[1:] == EXPECTED_VALUES[case]


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_every_path_start_agrees_on_three_engines(case):
    path, context, lead, marker = PATH_CASES[case]
    reference = _assert_three_engines_agree(
        path,
        marker,
        context_item=CONTEXTS[context],
        variables={"x": LEADS[lead], "d": DOCUMENT},
    )
    _assert_expected(case, reference)


@pytest.mark.parametrize("case", list(CALL_CASES))
def test_every_call_agrees_on_three_engines(case):
    source, overrides, marker = CALL_CASES[case]
    config = EngineConfig(compile_cache_size=0, **overrides)
    reference = _assert_three_engines_agree(source, marker, config, variables={"d": DOCUMENT})
    _assert_expected(case, reference)


class _Clock:
    """``time.monotonic`` for the engine: one tick per reading."""

    def __init__(self):
        self._ticks = itertools.count()

    def monotonic(self):
        return float(next(self._ticks))


@pytest.mark.parametrize("case", list(DEADLINE_CASES))
def test_a_deadline_stops_every_engine_at_the_same_call(case, monkeypatch):
    source, ticks, marker = DEADLINE_CASES[case]
    plain, compiled = _forms(source, marker)
    outcomes = []
    for query, backend in ((plain, "treewalk"), (plain, "algebra"), (compiled, "algebra")):
        monkeypatch.setattr(context_module, "time", _Clock())
        outcomes.append(_outcome(query, backend, deadline=ticks - 0.5))
    assert outcomes[0][2] == "XQDY_TIMEOUT"
    assert len(outcomes[0][4]) == ticks - 1
    assert outcomes[1] == outcomes[0], "executor"
    assert outcomes[2] == outcomes[0], "compiler"


# -- memos keyed on constructed bases ------------------------------------------

MEMO_QUERIES = {
    # a closed scan over a constructed base, one base per iteration
    "scan": "for $i in 1 to 200 return count(<a>{ if ($i mod 2 = 1) then <c/> else <b/> }</a>/b)",
    # a hash join whose build side scans a constructed base per iteration;
    # an odd base's build is empty, so nothing else keeps it alive
    "join": (
        "for $i in 1 to 200 return count("
        " let $t := <t>{ if ($i mod 2 = 1) then <x/> else <e k='1'/> }</t>"
        " for $p in <p k='1'/> return $t/e[@k eq $p/@k])"
    ),
}


@pytest.mark.parametrize("shared", [False, True], ids=["per-run", "shared-lru"])
@pytest.mark.parametrize("kind", list(MEMO_QUERIES))
def test_a_memo_never_answers_for_a_reused_id(kind, shared):
    query = XQueryEngine(EngineConfig(compile_cache_size=0)).compile(MEMO_QUERIES[kind])
    plan = query.explain()["text"]
    assert ("HashJoin" in plan) == (kind == "join"), plan
    reference = query.run(backend="treewalk")
    assert reference == [0, 1] * 100
    cache = LRU(None) if shared else None
    for _ in range(5):
        assert query.run(backend="algebra", algebra_cache=cache) == reference
