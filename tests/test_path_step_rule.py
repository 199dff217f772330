"""One path-step rule: every fast axis step runs through one function.

The closure compiler and the algebra executor run each axis step through
``repro.xquery.compiler.run_path_step``: the candidate scan, the ``//``
expansion, the non-node errors and the rule for when the document-order
sort may be skipped.  The treewalk is the reference; it scans generically
and sorts every step.

* The step-rule pin runs every axis x node test x separator x predicate
  tail x context shape over random trees with nested same-name elements
  on three engines: the treewalk, the executor (the path is a ``Scan`` in
  ``explain``) and the compiler (the same path inside a typed ``local:``
  function, which the algebra hands to the compiler whole).  Node
  identities, their order and error codes must agree.
* The sort-count pin counts ``sort_document_order`` calls over a fixed
  list of paths on the algebra backend; no row may read more than it did
  when the rule was still written twice (the recorded figures), and each
  row's result must still be the treewalk's.
* The no-aliasing pin appends to a returned sequence and checks that
  neither a second run nor the element's name index sees it.
"""

import functools
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.xdm import Node, sort_document_order
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.errors import XQueryError

AXES = (
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
)
TESTS = ("NAME", "*", "node()", "text()")
SEPARATORS = ("/", "//")
TAILS = ("", "[1]", "[@k eq $v]", "[@k eq $v][1]")
#: context shapes: one node (twice: one with siblings on both sides, and
#: one nested in a same-name element), ordered non-nested, nested,
#: unordered, duplicates, an atomic, and no context ("" starts the path).
CONTEXTS = (
    "$d/r/a[1]",
    "$d/r/a[1]/a[1]",
    "$d/r/a",
    "$d//a",
    "($d//c, $d//a)",
    "($d//a, $d//a)",
    "$v",
    "",
)

FUNCTION = (
    "declare function local:f($d as node(), $v as xs:string) as item()* "
    "{{ {path} }}; local:f($d, $v)"
)

ENGINE = XQueryEngine(EngineConfig(compile_cache_size=0))


def _path(context, separator, axis, test, tail):
    name = "k" if axis == "attribute" else "a"
    step = f"{axis}::{test.replace('NAME', name)}{tail}"
    if not context:
        return step if separator == "/" else "//" + step
    return f"{context}{separator}{step}"


def _paths(axis):
    return [
        _path(context, separator, axis, test, tail)
        for context in CONTEXTS
        for separator in SEPARATORS
        for test in TESTS
        for tail in TAILS
    ]


@functools.lru_cache(maxsize=256)  # one axis's paths at a time
def _queries(path):
    """The path as a top-level query and inside a typed function."""
    return ENGINE.compile(path), ENGINE.compile(FUNCTION.format(path=path))


def _outcome(query, backend, variables):
    try:
        result = query.run(backend=backend, variables=variables)
    except XQueryError as error:
        return ("error", type(error).__name__, error.code, error.bare_message)
    return ("ok", [id(item) if isinstance(item, Node) else item for item in result])


def _element(children):
    return st.tuples(
        st.sampled_from(("a", "b", "c")),
        st.sampled_from(("", ' k="1"', ' k="2"')),
        st.lists(children, max_size=3),
    ).map(lambda parts: f"<{parts[0]}{parts[1]}>{''.join(parts[2])}</{parts[0]}>")


CONTENT = st.recursive(
    st.sampled_from(("t", "<a/>", '<a k="1"/>', "<c/>")), _element, max_leaves=12
)


def _document(children):
    # a fixed prefix: every tree has nested same-name elements, and both
    # one-node contexts have siblings before and after them
    body = '<c/>t<a k="1"><b/><a k="2">x<b/></a><b k="1"/>y<a/></a><b k="2"/>'
    return parse_document(f"<r>{body}{''.join(children)}</r>")


@pytest.mark.parametrize("axis", AXES)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(children=st.lists(CONTENT, max_size=4), value=st.sampled_from(("1", "2")))
def test_every_step_agrees_on_three_engines(axis, children, value):
    variables = {"d": _document(children), "v": value}
    for path in _paths(axis):
        plain, typed = _queries(path)
        reference = _outcome(plain, "treewalk", variables)
        assert _outcome(plain, "algebra", variables) == reference, ("executor", path)
        assert _outcome(typed, "algebra", variables) == reference, ("compiler", path)


@pytest.mark.parametrize("axis", AXES)
def test_every_step_runs_on_the_engine_it_names(axis):
    for path in _paths(axis):
        plain, typed = _queries(path)
        assert "Scan(" in plain.explain()["text"], path
        assert "[typed signature]" in typed.explain()["text"], path


# -- the sort-count pin -------------------------------------------------------

SORT_DOCUMENT = (
    '<r><a k="1"><a k="2"><b/>x</a><b/><c/></a><a k="2"><b/><c/>y</a>'
    "<c><a/><b/></c></r>"
)

#: path -> sort_document_order calls on the algebra backend, plain and
#: inside a typed function, recorded before the rule had one home.
SORT_COUNTS = {
    "$d/r/a": (0, 0),
    "$d/r/a/b": (0, 1),
    "$d/r/a/@k": (0, 1),
    "$d/r/a/self::a": (0, 1),
    "$d/r/a/descendant::b": (0, 1),
    "$d/r/a/parent::r": (1, 1),
    "$d/r/a/following-sibling::*": (1, 1),
    "$d/r/a/ancestor::*": (1, 1),
    "$d/r/a[1]/parent::*": (1, 0),
    "$d/r/a[1]/following-sibling::a": (0, 0),
    "$d/r/a[1]/preceding-sibling::*": (0, 1),
    "$d//a": (1, 2),
    "$d//a/b": (2, 3),
    "$d//a//b": (3, 4),
    "$d/r//b": (1, 2),
    "$d/r/a//b": (1, 2),
    "$d//a/@k": (2, 3),
    "($d//c, $d//a)/b": (3, 5),
    "($d//a, $d//a)/b": (3, 5),
    "$d/r/a/b[1]": (0, 1),
    "$d/r/a/b[@k eq '1']": (0, 0),
    "$d/r/c/a/parent::*/b": (2, 0),
    "$d/r/descendant::a/b": (1, 1),
    "($d//c, $d//a)//name()": (5, 5),
}


def _count_sorts(monkeypatch):
    calls = []

    def counting(nodes):
        calls.append(len(nodes))
        return sort_document_order(nodes)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(
            module, "sort_document_order", None
        ) is sort_document_order:
            monkeypatch.setattr(module, "sort_document_order", counting)
    return calls


def test_no_path_sorts_more_than_before(monkeypatch):
    document = parse_document(SORT_DOCUMENT)
    variables = {"d": document, "v": "1"}
    queries = {path: _queries(path) for path in SORT_COUNTS}
    references = {
        path: _outcome(plain, "treewalk", variables)
        for path, (plain, _) in queries.items()
    }
    calls = _count_sorts(monkeypatch)
    counts = {}
    for path, queries_for_path in queries.items():
        row = []
        for query in queries_for_path:
            del calls[:]
            assert _outcome(query, "algebra", variables) == references[path], path
            row.append(len(calls))
        counts[path] = tuple(row)
    worse = {
        path: (SORT_COUNTS[path], counts[path])
        for path in SORT_COUNTS
        if any(now > then for now, then in zip(counts[path], SORT_COUNTS[path]))
    }
    assert not worse, worse


# -- no aliasing ----------------------------------------------------------------


@pytest.mark.parametrize("form", ["executor", "compiler"])
def test_a_returned_sequence_is_the_callers_own(form):
    document = parse_document('<r><a k="1"/><b/><a k="2"/></r>')
    root = document.children[0]
    index_before = list(root.children_by_name("a"))
    plain, typed = _queries("$d/r/a")
    query = plain if form == "executor" else typed
    variables = {"d": document, "v": "1"}
    first = query.run(backend="algebra", variables=variables)
    assert [id(n) for n in first] == [id(n) for n in index_before]
    first.append("intruder")
    second = query.run(backend="algebra", variables=variables)
    assert [id(n) for n in second] == [id(n) for n in index_before]
    assert root.children_by_name("a") == index_before
