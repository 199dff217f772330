"""Tests for the try/catch extension — lesson 4 made real.

XQuery 3.0 (2014) added try/catch, validating the paper's fourth lesson a
decade later.  This engine implements a simplified form as an extension.
"""

import pytest

from repro.workloads import nested_input, trycatch_chain_program
from repro.xquery import XQueryEngine, XQueryStaticError, XQueryUserError
from repro.xquery.analysis.types import check_module
from repro.xquery import parse_query

engine = XQueryEngine()


def run(source, **kwargs):
    return engine.evaluate(source, **kwargs)


class TestTryCatch:
    def test_no_error_returns_body(self):
        assert run("try { 42 } catch { 'unused' }") == [42]

    def test_dynamic_error_caught(self):
        assert run("try { 1 div 0 } catch { 'saved' }") == ["saved"]

    def test_fn_error_caught(self):
        assert run("try { error('boom') } catch { 'caught' }") == ["caught"]

    def test_catch_variable_carries_code_and_message(self):
        result = run(
            "try { error('boom') } catch $e "
            "{ concat(string($e/@code), '/', string($e/message)) }"
        )
        assert result == ["FOER0000/boom"]

    def test_division_error_code(self):
        result = run("try { 1 idiv 0 } catch $e { string($e/@code) }")
        assert result == ["FOAR0001"]

    def test_missing_variable_caught(self):
        assert run("try { $nope } catch { 'undefined' }") == ["undefined"]

    def test_nested_try(self):
        source = (
            "try { try { error('inner') } catch { error('outer') } } "
            "catch $e { string($e/message) }"
        )
        assert run(source) == ["outer"]

    def test_handler_errors_propagate(self):
        with pytest.raises(XQueryUserError, match="from-handler"):
            run("try { 1 div 0 } catch { error('from-handler') }")

    def test_static_errors_not_caught(self):
        # a syntax error inside try is still a compile-time error.
        with pytest.raises(XQueryStaticError):
            run("try { 1 + } catch { 'nope' }")

    def test_try_inside_flwor(self):
        source = (
            "for $d in (2, 0, 4) return "
            "try { 8 idiv $d } catch { 'div0' }"
        )
        assert run(source) == [4, "div0", 2]

    def test_checker_scopes_catch_variable(self):
        module = parse_query("try { 1 } catch $e { $e }")
        assert check_module(module) == []

    def test_try_as_element_name_still_parses(self):
        result = run("<r><try>x</try></r>/try/text()")
        assert result[0].string_value() == "x"


class TestTryCatchChainWorkload:
    def test_healthy_chain(self):
        program = trycatch_chain_program(6)
        result = run(program, variables={"input": nested_input(6)})
        assert result[0].name == "done"

    def test_broken_chain_reports_level(self):
        program = trycatch_chain_program(6)
        result = run(program, variables={"input": nested_input(6, break_at=4)})
        assert result[0].name == "failed"
        assert "c4" in result[0].string_value()

    def test_chain_is_one_line_per_call(self):
        # the whole point: the error regime stops inflating the code.
        program = trycatch_chain_program(16)
        lets = [l for l in program.splitlines() if l.strip().startswith("let $c1")]
        body = [
            line
            for line in program.splitlines()
            if line.strip().startswith("let $c")
            and "required-child" in line
        ]
        assert len(body) == 16  # exactly one line per fetch
