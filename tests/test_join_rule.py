"""One join rule: the hash answers one string key, the predicate rule the rest.

The algebra executor lowers ``for $i in base/step[@a eq probe]`` (and
``=``) to a hash join.  Its hash answers exactly one case: one string-like
key (``xs:string`` or untyped) over a build in which no candidate carries
the join attribute twice.  Every other probe (an atom that is not
string-like, several keys, a repeated attribute under ``eq`` or ``=``)
runs the join predicate and the residual through
``repro.xquery.compiler.run_predicates``, the one predicate rule, so the
errors and the order are the treewalk's by construction.

Each case runs on three engines: the treewalk, the executor (the case as
written, which explain shows as a ``HashJoin``) and the compiler (the case
inside ``if (true()) then (...) else ()``, a form the algebra hands to the
compiler whole).  Node identities and order, error class, code and
message, and ``fn:trace`` output must agree.

The eviction row runs a join over a constructed base per iteration with a
shared ``LRU(1)``: the cache evicts each build before the next one, so a
probe memo keyed on a build's id would answer for a later build that
reuses it.
"""

import pytest

from repro.lru import LRU
from repro.xdm import Node
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.errors import XQueryError

COMPILER_FORM = "if (true()) then ({body}) else ()"

DOCUMENT = parse_document(
    "<r>"
    '<e k="a" n="1"/><e k="b" n="2"/><e n="3"/><e k="a" n="4"/>'
    '<f k="1"/><f k="01"/><f k="0"/><f k="1.0"/>'
    '<h k="1"/><h k="true"/><h k="0"/><h k="false"/>'
    '<g><e k="b" n="10"/><g><e k="a" n="11"/></g></g>'
    '<p v="a" n="1" w="1"/><p v="b" n="4" w="0"/><p v="z" n="2"/><p v="a" n="4"/>'
    "</r>"
)


def _kept(element):
    """A root element built in ``keep`` mode (a copy into a parent would
    keep one attribute of each name)."""
    engine = XQueryEngine(EngineConfig(duplicate_attribute_mode="keep"))
    return engine.compile(element).run()


#: one element repeating ``k``, with one value or with two; alone in its
#: build, so the build is in document order and no sort hides a duplicate
SAME = _kept('element e { attribute k { "a" }, attribute k { "a" } }')
DIFFERENT = _kept('element e { attribute k { "a" }, attribute k { "b" } }')

VARIABLES = {"d": DOCUMENT, "same": SAME, "different": DIFFERENT}

#: probes a, b, z, a
_JOIN = "for $p in $d/r/p for $i in {scan}[{join}]{residual} return $i"
#: probes a, b, a
_KEEP = "for $p in $d/r/p[@v = ('a', 'b')] for $i in {scan}/self::e[{join}] return $i"


def _join(join, scan="$d/r/e", residual=""):
    return _JOIN.format(scan=scan, join=join, residual=residual)


#: case -> (source, duplicate-attribute mode)
CASES = {
    "one-key-eq-attribute": (_join("@k eq $p/@v"), "last"),
    "one-key-general-attribute": (_join("@k = $p/@v"), "last"),
    "one-key-eq-evaluated": (_join("@k eq string($p/@v)"), "last"),
    "one-key-general-evaluated": (_join("@k = string($p/@v)"), "last"),
    "one-key-root-based": (_join("@k = $p/@v", scan="root($p)/r/e"), "last"),
    "one-key-nested-groups": (_join("@k = $p/@v", scan="root($p)//g/e"), "last"),
    "empty-probe-eq": (_join("@k eq $p/@missing"), "last"),
    "empty-probe-general": (_join("@k = $p/@missing"), "last"),
    "empty-build": (_join("@k eq xs:integer($p/@v)", scan="$d/r/missing"), "last"),
    "several-keys-general": (_join("@k = $p/../p/@v"), "last"),
    "several-keys-eq-with-attribute": (_join("@k eq $p/../p/@v"), "last"),
    "several-keys-eq-without-attribute": (_join("@missing eq $p/../p/@v"), "last"),
    "numeric-probe-general": (_join("@k = number($p/@w)", scan="$d/r/f"), "last"),
    "numeric-probe-eq": (_join("@k eq number($p/@w)", scan="$d/r/f"), "last"),
    "boolean-probe-general": (_join("@k = exists($p/@w)", scan="$d/r/h"), "last"),
    "keep-same-value-eq": (_KEEP.format(scan="$same", join="@k eq $p/@v"), "keep"),
    "keep-same-value-general": (_KEEP.format(scan="$same", join="@k = $p/@v"), "keep"),
    "keep-different-values-eq": (_KEEP.format(scan="$different", join="@k eq $p/@v"), "keep"),
    "keep-different-values-general": (
        _KEEP.format(scan="$different", join="@k = $p/@v"),
        "keep",
    ),
    "residual-trace": (_join("@k = $p/@v", residual="[trace('n', @n)]"), "last"),
    "residual-reads-the-tuple": (_join("@k = $p/@v", residual="[@n = $p/@n]"), "last"),
    "repeated-key-across-tuples": (_join("@k eq $p/@v", residual="[@n]"), "last"),
}

_SINGLETON = ("XPTY0004", "value comparison 'eq' requires singleton operands", [])

#: case -> the reference outcome's (code, message, trace), for the rows
#: that raise; every other row returns.
EXPECTED_ERRORS = {
    "several-keys-eq-with-attribute": _SINGLETON,
    "keep-same-value-eq": _SINGLETON,
    "keep-different-values-eq": _SINGLETON,
}

_R = DOCUMENT.children[0]
_E = _R.children_by_name("e")
_F = _R.children_by_name("f")
_H = _R.children_by_name("h")
_G = _R.children_by_name("g")[0]
_G_E = _G.children_by_name("e")[0]
_G_G_E = _G.children_by_name("g")[0].children_by_name("e")[0]

#: case -> the reference's nodes and trace, for rows that return
EXPECTED_VALUES = {
    "one-key-eq-attribute": ([_E[0], _E[3], _E[1], _E[0], _E[3]], []),
    "one-key-general-attribute": ([_E[0], _E[3], _E[1], _E[0], _E[3]], []),
    "one-key-nested-groups": ([_G_G_E, _G_E, _G_G_E], []),
    "empty-probe-eq": ([], []),
    "empty-probe-general": ([], []),
    "empty-build": ([], []),
    "several-keys-general": ([_E[0], _E[1], _E[3]] * 4, []),
    "several-keys-eq-without-attribute": ([], []),
    # w="1" matches k="1", k="01" and k="1.0" as numbers; w="0" matches k="0"
    "numeric-probe-general": ([_F[0], _F[1], _F[3], _F[2]], []),
    "numeric-probe-eq": ([_F[0], _F[1], _F[3], _F[2]], []),
    # exists() is true for the first two probes, false for the last two
    "boolean-probe-general": ([_H[0], _H[1]] * 2 + [_H[2], _H[3]] * 2, []),
    # a candidate repeating one value matches its probe once
    "keep-same-value-general": (SAME * 2, []),
    "keep-different-values-general": (DIFFERENT * 3, []),
    "residual-reads-the-tuple": ([_E[0], _E[3]], []),
    "repeated-key-across-tuples": ([_E[0], _E[3], _E[1], _E[0], _E[3]], []),
}


def _outcome(query, backend, **run):
    trace = TraceLog()
    try:
        result = query.run(backend=backend, variables=VARIABLES, trace=trace, **run)
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


def _forms(source, mode):
    """The case's (executor, compiler) queries, each checked to run on the
    engine it names."""
    engine = XQueryEngine(EngineConfig(compile_cache_size=0, duplicate_attribute_mode=mode))
    plain = engine.compile(source)
    compiled = engine.compile(COMPILER_FORM.format(body=source))
    assert "HashJoin" in plain.explain()["text"], source
    explain = compiled.explain()
    assert explain["fallback"] and explain["text"].startswith("Eval(IfExpr"), source
    return plain, compiled


@pytest.mark.parametrize("case", list(CASES))
def test_every_join_agrees_on_three_engines(case):
    source, mode = CASES[case]
    plain, compiled = _forms(source, mode)
    reference = _outcome(plain, "treewalk")
    assert _outcome(plain, "algebra") == reference, ("executor", source)
    assert _outcome(compiled, "algebra") == reference, ("compiler", source)
    if case in EXPECTED_ERRORS:
        assert reference[0] == "error" and reference[2:] == EXPECTED_ERRORS[case]
    else:
        assert reference[0] == "ok", reference
    if case in EXPECTED_VALUES:
        nodes, trace = EXPECTED_VALUES[case]
        assert reference[1:] == ([id(node) for node in nodes], trace)


def test_the_residual_trace_runs_per_tuple_in_order():
    plain, _ = _forms(*CASES["residual-trace"])
    reference = _outcome(plain, "treewalk")
    # probes a, b, z, a: the residual sees each tuple's matches in order
    assert reference[2] == [f"n {n}" for n in ("1", "4", "2", "1", "4")]


#: a join whose build scans a constructed base per iteration, and a scan
#: of the same base that evicts the build from a one-entry cache; the
#: result names the iteration, so a replay from an earlier build shows
EVICTING = (
    "for $i in 1 to 200 return ("
    " let $t := <t><e k='1' n='{$i}'/><e k='2' n='x'/></t>"
    " for $p in <p k='1'/> for $e in $t/e[@k eq $p/@k]"
    " return (string($e/@n), count($t/e)))"
)


def test_a_bounded_shared_cache_evicting_builds_matches_the_treewalk():
    query = XQueryEngine(EngineConfig(compile_cache_size=0)).compile(EVICTING)
    assert "HashJoin" in query.explain()["text"]
    reference = query.run(backend="treewalk")
    assert reference == [value for i in range(1, 201) for value in (str(i), 2)]
    cache = LRU(1)
    for _ in range(3):
        assert query.run(backend="algebra", algebra_cache=cache) == reference
    assert cache.stats()["currsize"] == 1
