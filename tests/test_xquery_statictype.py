"""Tests for the static checker and the type-metastasis measurement."""

from repro.xquery import parse_query
from repro.xquery.analysis.types import annotation_pressure, call_graph, check_module


class TestChecker:
    def test_clean_module(self):
        module = parse_query(
            "declare function local:f($x) { $x + 1 }; local:f(2)"
        )
        assert check_module(module) == []

    def test_undefined_variable(self):
        issues = check_module(parse_query("$nope"))
        assert [issue.code for issue in issues] == ["XPST0008"]

    def test_flwor_scoping_understood(self):
        module = parse_query("for $x in 1 to 3 let $y := $x return $x + $y")
        assert check_module(module) == []

    def test_leak_out_of_flwor_detected(self):
        module = parse_query("(for $x in 1 to 3 return $x), $x")
        issues = check_module(module)
        assert any(issue.code == "XPST0008" for issue in issues)

    def test_quantifier_scoping(self):
        module = parse_query("some $q in (1,2) satisfies $q gt 1")
        assert check_module(module) == []

    def test_unknown_function(self):
        issues = check_module(parse_query("no-such-fn(1)"))
        assert [issue.code for issue in issues] == ["XPST0017"]

    def test_wrong_arity_is_unknown(self):
        issues = check_module(parse_query("count(1, 2, 3)"))
        assert [issue.code for issue in issues] == ["XPST0017"]

    def test_function_params_in_scope(self):
        module = parse_query("declare function local:f($a, $b) { $a + $b }; 1")
        assert check_module(module) == []

    def test_globals_visible_in_functions(self):
        module = parse_query(
            "declare variable $g := 1; "
            "declare function local:f() { $g }; local:f()"
        )
        assert check_module(module) == []

    def test_issue_has_location_and_rendering(self):
        issues = check_module(parse_query("$nope"))
        assert "line 1" in str(issues[0])


class TestMetastasis:
    MODULE = """
    declare function local:a($x as xs:integer) as xs:integer { local:b($x) };
    declare function local:b($x) { local:c($x) };
    declare function local:c($x) { $x };
    declare function local:island($x) { $x };
    local:a(1)
    """

    def test_call_graph(self):
        graph = call_graph(parse_query(self.MODULE))
        assert graph[("a", 1)] == {("b", 1)}
        assert graph[("b", 1)] == {("c", 1)}
        assert graph[("island", 1)] == set()

    def test_pressure_drags_in_connected_functions(self):
        # annotating `a` drags in b and c (they exchange values with it),
        # but not the island — "once types are used somewhere, they
        # rapidly metastatize".
        report = annotation_pressure(parse_query(self.MODULE))
        assert report["annotated"] == 1
        assert report["dragged_in"] == 2
        assert report["touched"] == 3
        assert report["pressure"] == 3.0

    def test_untyped_module_has_no_pressure(self):
        module = parse_query(
            "declare function local:f($x) { $x }; local:f(1)"
        )
        report = annotation_pressure(module)
        assert report["annotated"] == 0 and report["pressure"] == 0.0


class TestAnnotationPressureEdges:
    def test_empty_module(self):
        report = annotation_pressure(parse_query("42"))
        assert report == {
            "functions": 0,
            "annotated": 0,
            "dragged_in": 0,
            "touched": 0,
            "pressure": 0.0,
        }

    def test_fully_annotated_module_has_pressure_one(self):
        module = parse_query(
            "declare function local:a($x as item()) as item() { local:b($x) };"
            "declare function local:b($x as item()) as item() { $x };"
            "local:a(1)"
        )
        report = annotation_pressure(module)
        assert report["annotated"] == 2
        assert report["dragged_in"] == 0
        assert report["pressure"] == 1.0

    def test_param_annotation_alone_counts(self):
        module = parse_query(
            "declare function local:a($x as item()) { $x }; local:a(1)"
        )
        assert annotation_pressure(module)["annotated"] == 1
