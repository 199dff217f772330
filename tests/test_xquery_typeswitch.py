"""Tests for typeswitch — the draft type system's dispatch expression."""

import pytest

from repro.xquery import XQueryEngine, XQueryStaticError
from repro.xquery.analysis.types import check_module
from repro.xquery import parse_query

engine = XQueryEngine()


def run(source, **kwargs):
    return engine.evaluate(source, **kwargs)


class TestTypeswitch:
    def test_dispatch_on_atomic_type(self):
        source = (
            "typeswitch (5) case xs:string return 's' "
            "case xs:integer return 'i' default return 'd'"
        )
        assert run(source) == ["i"]

    def test_first_matching_case_wins(self):
        source = (
            "typeswitch (5) case xs:decimal return 'decimal' "
            "case xs:integer return 'integer' default return 'd'"
        )
        # integer derives from decimal, so the first case matches.
        assert run(source) == ["decimal"]

    def test_default(self):
        source = (
            "typeswitch ('x') case xs:integer return 'i' default return 'd'"
        )
        assert run(source) == ["d"]

    def test_case_variable_binding(self):
        source = (
            "typeswitch (<a year='1'/>) "
            "case $e as element(a) return string($e/@year) "
            "default return 'no'"
        )
        assert run(source) == ["1"]

    def test_default_variable_binding(self):
        source = (
            "typeswitch ((1,2,3)) case xs:integer return 'one' "
            "default $seq return count($seq)"
        )
        assert run(source) == [3]

    def test_occurrence_indicators(self):
        source = (
            "typeswitch ((1,2)) case xs:integer return 'one' "
            "case xs:integer+ return 'many' default return 'other'"
        )
        assert run(source) == ["many"]

    def test_empty_sequence_case(self):
        source = (
            "typeswitch (()) case empty-sequence() return 'empty' "
            "default return 'full'"
        )
        assert run(source) == ["empty"]

    def test_node_kind_cases(self):
        source = (
            "typeswitch (attribute a {1}) "
            "case element() return 'element' "
            "case attribute() return 'attribute' "
            "default return 'other'"
        )
        assert run(source) == ["attribute"]

    def test_requires_case_clause(self):
        with pytest.raises(XQueryStaticError):
            run("typeswitch (1) default return 'd'")

    def test_error_convention_dispatch(self):
        # the docgen idiom typeswitch enables: dispatch on <error> returns.
        source = """
        declare function local:risky($x) {
          if ($x lt 0) then <error><message>negative</message></error>
          else $x * 2
        };
        for $input in (3, -1)
        return
          typeswitch (local:risky($input))
            case $err as element(error) return concat("failed: ", $err/message)
            default $v return $v
        """
        assert run(source) == [6, "failed: negative"]

    def test_static_checker_sees_case_variables(self):
        module = parse_query(
            "typeswitch (1) case $v as xs:integer return $v default $d return $d"
        )
        assert check_module(module) == []

    def test_typeswitch_as_element_name_still_parses(self):
        # `typeswitch` not followed by "(" is an ordinary name test.
        result = run("<r><typeswitch>x</typeswitch></r>/typeswitch/text()")
        assert result[0].string_value() == "x"
