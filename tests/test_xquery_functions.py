"""Evaluator tests: the built-in function library."""

from decimal import Decimal

import pytest

from repro.xmlio import parse_document, parse_element
from repro.xquery import (
    TraceLog,
    XQueryDynamicError,
    XQueryEngine,
    XQueryError,
    XQueryUserError,
    builtin_names,
)

engine = XQueryEngine()


def run(source, **kwargs):
    return engine.evaluate(source, **kwargs)


class TestCardinality:
    def test_count(self):
        assert run("count(())") == [0]
        assert run("count((1,2,3))") == [3]

    def test_empty_exists(self):
        assert run("empty(())") == [True]
        assert run("exists(())") == [False]
        assert run("exists(1)") == [True]

    def test_exactly_one(self):
        assert run("exactly-one((5))") == [5]
        with pytest.raises(XQueryDynamicError) as info:
            run("exactly-one((1,2))")
        assert info.value.code == "FORG0005"

    def test_zero_or_one(self):
        assert run("zero-or-one(())") == []
        with pytest.raises(XQueryDynamicError):
            run("zero-or-one((1,2))")

    def test_one_or_more(self):
        assert run("one-or-more((1,2))") == [1, 2]
        with pytest.raises(XQueryDynamicError):
            run("one-or-more(())")


class TestBooleans:
    def test_true_false(self):
        assert run("true()") == [True]
        assert run("false()") == [False]

    def test_not(self):
        assert run("not(())") == [True]
        assert run("not(1)") == [False]

    def test_boolean(self):
        assert run("boolean((<a/>))") == [True]
        assert run("boolean('')") == [False]


class TestStrings:
    def test_string_of_context(self):
        node = parse_element("<a>hi</a>")
        assert engine.evaluate("string()", context_item=node) == ["hi"]

    def test_concat_variadic(self):
        assert run("concat('a','b','c','d')") == ["abcd"]

    def test_string_join(self):
        assert run("string-join(('a','b'), '/')") == ["a/b"]
        assert run("string-join((), '/')") == [""]

    def test_substring(self):
        assert run("substring('12345', 2)") == ["2345"]
        assert run("substring('12345', 2, 3)") == ["234"]
        assert run("substring('12345', 0, 3)") == ["12"]

    def test_substring_before_after(self):
        assert run("substring-before('a/b/c', '/')") == ["a"]
        assert run("substring-after('a/b/c', '/')") == ["b/c"]
        assert run("substring-before('abc', 'x')") == [""]

    def test_contains_starts_ends(self):
        assert run("contains('banana', 'nan')") == [True]
        assert run("starts-with('banana', 'ban')") == [True]
        assert run("ends-with('banana', 'ana')") == [True]

    def test_normalize_space(self):
        assert run("normalize-space('  a   b  ')") == ["a b"]

    def test_case_functions(self):
        assert run("upper-case('abc')") == ["ABC"]
        assert run("lower-case('ABC')") == ["abc"]

    def test_translate(self):
        assert run("translate('abcabc', 'abc', 'xy')") == ["xyxy"]

    def test_string_length(self):
        assert run("string-length('hello')") == [5]
        assert run("string-length('')") == [0]

    def test_tokenize(self):
        assert run("tokenize('a,b,,c', ',')") == ["a", "b", "", "c"]
        assert run("tokenize('', ',')") == []

    def test_matches_replace(self):
        assert run("matches('banana', 'an+a')") == [True]
        assert run("replace('banana', 'a', 'o')") == ["bonono"]

    def test_codepoints(self):
        assert run("string-to-codepoints('AB')") == [65, 66]
        assert run("codepoints-to-string((72, 105))") == ["Hi"]


class TestNumerics:
    def test_number(self):
        assert run("number('3.5')") == [3.5]
        nan = run("number('x')")[0]
        assert nan != nan

    def test_abs_floor_ceiling(self):
        assert run("abs(-2)") == [2]
        assert run("floor(1.7)") == [1]
        assert run("ceiling(1.2)") == [2]

    def test_round_half_up(self):
        assert run("round(2.5)") == [3]
        assert run("round(-2.5)") == [-2]  # rounds toward +inf, not away

    def test_sum(self):
        assert run("sum((1,2,3))") == [6]
        assert run("sum(())") == [0]

    def test_avg(self):
        assert run("avg((1,2,3))") == [Decimal(2)]
        assert run("avg(())") == []

    def test_min_max(self):
        assert run("min((3,1,2))") == [1]
        assert run("max((3,1,2))") == [3]
        assert run("min(('b','a'))") == ["a"]
        assert run("min(())") == []

    def test_sum_over_nodes(self):
        doc = parse_element("<r><v>1</v><v>2</v></r>")
        assert run("sum($r/v)", variables={"r": doc}) == [3.0]


class TestSequences:
    def test_distinct_values(self):
        assert run("distinct-values((1, 2, 1, 'a', 'a'))") == [1, 2, "a"]

    def test_distinct_values_numeric_cross_type(self):
        assert run("distinct-values((1, 1.0))") == [1]

    def test_reverse(self):
        assert run("reverse((1,2,3))") == [3, 2, 1]
        assert run("reverse(())") == []

    def test_subsequence(self):
        assert run("subsequence((1,2,3,4,5), 2, 3)") == [2, 3, 4]
        assert run("subsequence((1,2,3), 2)") == [2, 3]

    def test_insert_before(self):
        assert run("insert-before((1,2,3), 2, (9))") == [1, 9, 2, 3]

    def test_remove(self):
        assert run("remove((1,2,3), 2)") == [1, 3]
        assert run("remove((1,2,3), 9)") == [1, 2, 3]

    def test_index_of(self):
        assert run("index-of((10,20,10), 10)") == [1, 3]
        assert run("index-of((1,2), 9)") == []

    def test_deep_equal(self):
        assert run("deep-equal(<a><b/></a>, <a><b/></a>)") == [True]
        assert run("deep-equal(<a/>, <b/>)") == [False]

    def test_data(self):
        doc = parse_element("<r><v>7</v></r>")
        result = run("data($r/v)", variables={"r": doc})
        assert [str(x) for x in result] == ["7"]


class TestNodeFunctions:
    def test_name(self):
        assert run("name(<foo/>)") == ["foo"]
        assert run("name(())") == [""]

    def test_local_name_strips_prefix(self):
        assert run("local-name(<x:foo/>)") == ["foo"]

    def test_node_name_empty_for_unnamed(self):
        assert run("node-name(text {'x'})") == []

    def test_root(self):
        document = parse_document("<a><b/></a>")
        result = engine.evaluate("root(./a/b)", context_item=document)
        assert result == [document]

    def test_doc_function(self):
        document = parse_document("<data><x/></data>")
        result = run(
            'doc("model.xml")/data/x', documents={"model.xml": document}
        )
        assert len(result) == 1

    def test_doc_missing(self):
        with pytest.raises(XQueryDynamicError) as info:
            run('doc("nope.xml")')
        assert info.value.code == "FODC0002"

    def test_doc_available(self):
        document = parse_document("<d/>")
        assert run('doc-available("x")', documents={"x": document}) == [True]
        assert run('doc-available("y")', documents={"x": document}) == [False]


class TestErrorAndTrace:
    def test_error_kills_the_program(self):
        with pytest.raises(XQueryUserError, match="doom"):
            run("error('doom')")

    def test_error_no_args(self):
        with pytest.raises(XQueryUserError):
            run("error()")

    def test_error_carries_value(self):
        with pytest.raises(XQueryUserError) as info:
            run("error('msg', (1,2,3))")
        assert info.value.value == [1, 2, 3]

    def test_trace_returns_last_argument(self):
        # the paper's trace: "prints its arguments and returns the value
        # of the last one".
        no_opt = XQueryEngine(optimize=False)
        trace = TraceLog()
        assert no_opt.evaluate("trace('x=', 41 + 1)", trace=trace) == [42]
        assert trace.messages == ["x= 42"]

    def test_trace_multiple_messages(self):
        no_opt = XQueryEngine(optimize=False)
        trace = TraceLog()
        no_opt.evaluate("for $i in 1 to 3 return trace('i', $i)", trace=trace)
        assert trace.messages == ["i 1", "i 2", "i 3"]


class TestLibraryInventory:
    def test_builtin_names_listed(self):
        names = builtin_names()
        for expected in ("count", "concat", "trace", "error", "doc"):
            assert expected in names

    def test_context_functions_require_focus(self):
        with pytest.raises(XQueryDynamicError) as info:
            run("position()")
        assert info.value.code == "XPDY0002"


#: name -> calls over ordinary, empty, node and ill-typed arguments
BOOLEAN_CALLS = {
    "true": ["true()"],
    "false": ["false()"],
    "not": ["not(())", "not((<a/>, 1))", "not((1, 2))"],
    "boolean": ["boolean('')", "boolean(<a/>)", "boolean((1, 2))"],
    "empty": ["empty(())", "empty(<a/>)"],
    "exists": ["exists(())", "exists((1, 2))"],
    "deep-equal": ["deep-equal((1, 2), (1, 2))", "deep-equal(<a/>, 'a')", "deep-equal((), ())"],
    "contains": ["contains('abc', 'b')", "contains((), 'b')", "contains(('a', 'b'), 'b')"],
    "starts-with": ["starts-with('abc', 'a')", "starts-with(<a>x</a>, 'x')", "starts-with(1, '1')"],
    "ends-with": ["ends-with('abc', 'c')", "ends-with((), '')", "ends-with(('a', 'b'), 'b')"],
    "matches": ["matches('abc', 'b+')", "matches((), 'x')", "matches(('a', 'b'), 'a')"],
    "doc-available": ["doc-available('nowhere.xml')", "doc-available(())", "doc-available((1, 2))"],
}


def test_every_boolean_builtin_is_pinned():
    from repro.xquery.functions import BOOLEAN_BUILTINS

    assert set(BOOLEAN_CALLS) == BOOLEAN_BUILTINS


def _boolean_outcome(source, backend):
    try:
        return ("ok", XQueryEngine(compile_cache_size=0).compile(source).run(backend=backend))
    except XQueryError as error:
        return ("error", type(error).__name__, error.code, error.bare_message)


@pytest.mark.parametrize(
    "call", [call for calls in BOOLEAN_CALLS.values() for call in calls]
)
def test_a_boolean_builtin_returns_one_boolean_or_raises(call):
    # the closure compiler takes such a call's first item as its
    # effective boolean value, in a condition and in a predicate
    outcome = _boolean_outcome(call, "treewalk")
    if outcome[0] == "ok":
        assert len(outcome[1]) == 1 and type(outcome[1][0]) is bool, outcome
    for form in ("if ({call}) then 1 else 0", "(1, 2)[{call}]"):
        source = form.format(call=call)
        reference = _boolean_outcome(source, "treewalk")
        compiled = "if (true()) then ({source}) else ()".format(source=source)
        assert _boolean_outcome(compiled, "algebra") == reference, source
