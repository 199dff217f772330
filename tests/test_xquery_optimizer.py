"""Optimizer tests, including the trace-eating dead-code bug."""

import pytest

from repro.xquery import EngineConfig, TraceLog, XQueryEngine, parse_query
from repro.xquery.ast import function_table
from repro.xquery.errors import XQueryError
from repro.xquery.optimizer import DeadLet, Effects, dead_lets, free_variables, optimize_module
from repro.xquery.parser import parse_expression


class TestConstantFolding:
    def test_arithmetic_folds(self):
        module = parse_query("1 + 2 * 3")
        stats = optimize_module(module)
        assert stats.folded_constants == 2
        assert module.body.value == 7

    def test_division_by_zero_left_for_runtime(self):
        module = parse_query("1 div 0")
        optimize_module(module)
        # still an Arithmetic node: folding must not hide runtime errors.
        assert type(module.body).__name__ == "Arithmetic"

    def test_if_with_constant_condition(self):
        module = parse_query("if (true()) then 1 else 2")
        # true() is a call, not a literal: not folded.
        optimize_module(module)
        assert type(module.body).__name__ == "IfExpr"

    def test_boolean_folding(self):
        module = parse_query("(1 eq 1) and $x")
        optimize_module(module)
        # comparisons aren't folded (by design), so the and survives.
        assert type(module.body).__name__ == "BooleanOp"

    def test_sequence_flattening(self):
        module = parse_query("(1, (), (2, 3))")
        optimize_module(module)
        # nested SequenceExprs and empties collapse at compile time
        assert len(module.body.items) == 3


class TestDeadLetElimination:
    def test_unused_pure_let_removed(self):
        module = parse_query("let $dead := 1 + 1 let $live := 2 return $live")
        stats = optimize_module(module)
        assert stats.dead_lets_removed == 1

    def test_used_let_kept(self):
        module = parse_query("let $x := 1 return $x")
        stats = optimize_module(module)
        assert stats.dead_lets_removed == 0

    def test_let_used_by_later_clause_kept(self):
        module = parse_query(
            "let $a := 1 for $i in 1 to $a where $a gt 0 return $i"
        )
        stats = optimize_module(module)
        assert stats.dead_lets_removed == 0

    def test_flwor_reduced_to_body_when_all_clauses_die(self):
        module = parse_query("let $dead := 5 return 42")
        optimize_module(module)
        assert module.body.value == 42

    def test_error_call_is_never_dead(self):
        module = parse_query("let $dead := error('boom') return 1")
        stats = optimize_module(module)
        assert stats.dead_lets_removed == 0

    def test_trace_survives_with_fixed_optimizer(self):
        module = parse_query("let $dummy := trace('x', 1) return 2")
        stats = optimize_module(module, trace_is_dead_code=False)
        assert stats.dead_lets_removed == 0
        assert stats.traces_removed == 0

    def test_trace_eaten_by_buggy_optimizer(self):
        # "the Galax compiler helpfully optimizes away — along with the
        # call to trace"
        module = parse_query("let $dummy := trace('x', 1) return 2")
        stats = optimize_module(module, trace_is_dead_code=True)
        assert stats.dead_lets_removed == 1
        assert stats.traces_removed == 1

    def test_insinuated_trace_survives_buggy_optimizer(self):
        # "LET $x := trace('x=', something)" — trace in live code survives.
        module = parse_query("let $x := trace('x=', 6 * 7) return $x + 1")
        stats = optimize_module(module, trace_is_dead_code=True)
        assert stats.traces_removed == 0


class TestEndToEndTraceBug:
    SOURCE = "let $x := 41 + 1 let $dummy := trace('x=', $x) return $x"

    def test_buggy_engine_loses_traces(self):
        engine = XQueryEngine(EngineConfig(optimize=True, trace_is_dead_code=True))
        trace = TraceLog()
        assert engine.evaluate(self.SOURCE, trace=trace) == [42]
        assert trace.messages == []

    def test_fixed_engine_keeps_traces(self):
        engine = XQueryEngine(EngineConfig(optimize=True, trace_is_dead_code=False))
        trace = TraceLog()
        assert engine.evaluate(self.SOURCE, trace=trace) == [42]
        assert trace.messages == ["x= 42"]

    def test_unoptimized_engine_keeps_traces(self):
        engine = XQueryEngine(EngineConfig(optimize=False))
        trace = TraceLog()
        engine.evaluate(self.SOURCE, trace=trace)
        assert trace.messages == ["x= 42"]

    def test_optimization_preserves_results(self):
        source = (
            "declare function local:f($n) { if ($n le 0) then () else "
            "($n, local:f($n - 1)) }; "
            "let $unused := 1 + 2 for $x in local:f(3) return $x * 2"
        )
        optimized = XQueryEngine(EngineConfig(optimize=True))
        plain = XQueryEngine(EngineConfig(optimize=False))
        assert optimized.evaluate(source) == plain.evaluate(source)


class TestAnalyses:
    def test_free_variables(self):
        expr = parse_expression("for $i in $src return $i + $other")
        assert free_variables(expr) == {"i", "src", "other"}

    def test_side_effects_detection(self):
        effects = Effects({})
        assert effects.of(parse_expression("error('x')")) == {"error"}
        assert effects.of(parse_expression("trace('x', 1)")) == {"trace"}
        assert not effects.of(parse_expression("1 + count($x)"))
        # the buggy mode does not count trace as a side effect: the let goes
        module = parse_query("let $d := trace('x', 1) return 2")
        assert list(dead_lets(module, trace_is_dead_code=True).values()) == [
            DeadLet(kept=False, traced=True)
        ]
        assert list(dead_lets(module).values()) == [DeadLet(kept=True, traced=True)]

    def test_effects_follow_user_function_calls(self):
        module = parse_query(
            "declare function local:f($n) { if ($n) then local:g() else 1 };"
            " declare function local:g() { local:f(trace('t', 0)) };"
            " declare function local:h() { fn:error() }; 1"
        )
        effects = Effects(function_table(module))
        assert effects.of(parse_expression("local:f(1)")) == {"trace"}
        assert effects.of(parse_expression("local:h()")) == {"error"}
        # an undeclared call is the builtin's, or no effect at all
        assert not effects.of(parse_expression("local:trace('x', 1)"))


class TestEffectsThroughCalls:
    """The default optimizer keeps effects a helper function reaches."""

    TRACE = 'declare function local:f() { trace("probe", 1) }; let $x := local:f() return 2'
    ERROR = 'declare function local:g() { error("boom") }; let $x := local:g() return 2'
    LOG = 'declare function local:log($m) { trace($m, 1) }; let $d := local:log("x") return 1'

    def test_default_config_keeps_a_trace_behind_a_call(self):
        for config in (EngineConfig(), EngineConfig(optimize=False)):
            trace = TraceLog()
            assert XQueryEngine(config).evaluate(self.TRACE, trace=trace) == [2]
            assert trace.messages == ["probe 1"]

    def test_default_config_keeps_an_error_behind_a_call(self):
        with pytest.raises(XQueryError) as raised:
            XQueryEngine(EngineConfig()).evaluate(self.ERROR)
        assert raised.value.code == "FOER0000"

    def test_buggy_pass_counts_the_trace_it_deletes_through_a_call(self):
        stats = optimize_module(parse_query(self.LOG), trace_is_dead_code=True)
        assert (stats.dead_lets_removed, stats.traces_removed) == (1, 1)
        stats = optimize_module(parse_query(self.LOG))
        assert (stats.dead_lets_removed, stats.traces_removed) == (0, 0)

    def test_a_trace_deleted_inside_a_deleted_let_counts_once(self):
        source = "let $x := (let $t := trace('x', 1) return 2) return 3"
        stats = optimize_module(parse_query(source), trace_is_dead_code=True)
        assert (stats.dead_lets_removed, stats.traces_removed) == (2, 1)
