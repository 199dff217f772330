"""EngineConfig(lint=...) wiring, backend parity, and position threading."""

import warnings

import pytest

from repro.xquery import (
    EngineConfig,
    LintWarning,
    XQueryEngine,
    XQueryStaticError,
    parse_query,
)
from repro.xquery.analysis.types import check_module

DEAD_TRACE = 'let $x := 6 * 7 let $dummy := trace("x=", $x) return $x'


class TestLintModes:
    def test_off_by_default(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            query = XQueryEngine().compile(DEAD_TRACE)
        assert query.diagnostics == []

    def test_warn_mode_emits_lint_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            query = XQueryEngine(EngineConfig(lint="warn")).compile(DEAD_TRACE)
        lint = [w for w in caught if issubclass(w.category, LintWarning)]
        assert len(lint) == 1
        assert "XQL001" in str(lint[0].message)
        assert [d.code for d in query.diagnostics] == ["XQL001"]

    def test_warn_mode_still_compiles_and_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            query = XQueryEngine(EngineConfig(lint="warn")).compile(DEAD_TRACE)
        assert query.run() == [42]

    def test_error_mode_raises_static_error(self):
        engine = XQueryEngine(EngineConfig(lint="error"))
        with pytest.raises(XQueryStaticError, match="XQL001"):
            engine.compile(DEAD_TRACE)

    def test_error_mode_accepts_clean_queries(self):
        engine = XQueryEngine(EngineConfig(lint="error"))
        assert engine.evaluate("1 + 1") == [2]

    def test_info_findings_do_not_warn_or_raise(self):
        # an unused let is only informational
        source = "let $unused := 1 return 42"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            query = XQueryEngine(EngineConfig(lint="error")).compile(source)
        assert [d.severity for d in query.diagnostics] == ["info"]

    def test_invalid_lint_value_is_rejected(self):
        with pytest.raises(ValueError, match="lint"):
            EngineConfig(lint="loud")

    def test_lint_runs_before_the_optimizer_deletes_the_evidence(self):
        # with the buggy dead-code pass on, the optimizer removes the
        # trace binding — the linter must still see (and escalate) it
        config = EngineConfig(lint="warn", optimize=True, trace_is_dead_code=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            query = XQueryEngine(config).compile(DEAD_TRACE)
        assert query.optimizer_stats.traces_removed == 1
        (diagnostic,) = query.diagnostics
        assert diagnostic.code == "XQL001"
        assert diagnostic.severity == "error"


class TestBackendParity:
    PROGRAMS = (
        DEAD_TRACE,
        "(1, 2)[3]",
        '<a x="1">{ attribute x { 2 } }</a>',
        "declare function local:orphan($x) { $x }; 42",
        "let $x := 1 let $x := 2 return $x",
    )

    def test_both_backends_emit_identical_diagnostics(self):
        for source in self.PROGRAMS:
            per_backend = {}
            for backend in ("treewalk", "algebra"):
                config = EngineConfig(lint="warn", backend=backend)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    query = XQueryEngine(config).compile(source)
                per_backend[backend] = [
                    (d.code, d.severity, d.line, d.column, d.message)
                    for d in query.diagnostics
                ]
            assert per_backend["treewalk"] == per_backend["algebra"], source


class TestPositionThreading:
    """The satellite fix: AST nodes carry real lexer positions."""

    def test_let_and_for_clauses_are_stamped(self):
        module = parse_query("for $i in 1 to 3\nlet $d := $i\nreturn $d")
        for_clause, let_clause = module.body.clauses
        assert (for_clause.line, for_clause.column) == (1, 5)
        assert (let_clause.line, let_clause.column) == (2, 5)

    def test_where_clause_is_stamped(self):
        module = parse_query("for $i in 1 to 3\nwhere $i gt 1\nreturn $i")
        where = module.body.clauses[1]
        assert (where.line, where.column) == (2, 1)

    def test_params_are_stamped(self):
        module = parse_query(
            "declare function local:f($alpha,\n  $beta) { $alpha };\n1"
        )
        alpha, beta = module.functions[0].params
        assert (alpha.line, alpha.column) == (1, 26)
        assert (beta.line, beta.column) == (2, 3)

    def test_nested_direct_elements_are_stamped(self):
        module = parse_query("<a>\n  <b/>\n</a>")
        inner = [p for p in module.body.content if hasattr(p, "name")]
        assert (inner[0].line, inner[0].column) == (2, 3)

    def test_static_issue_locations_are_no_longer_zero(self):
        (issue,) = check_module(parse_query("let $a := 1\nreturn $nope"))
        assert issue.code == "XPST0008"
        assert (issue.line, issue.column) == (2, 8)

    def test_all_linted_nodes_carry_positions(self):
        # every diagnostic against a multi-line program has a real span
        from repro.xquery.analysis import analyze_source

        source = (
            'declare function local:orphan($x) { $x };\n'
            'let $d := trace("t", 1)\n'
            "return $nope"
        )
        diagnostics = analyze_source(source)
        assert diagnostics
        assert all(d.line > 0 and d.column > 0 for d in diagnostics)
