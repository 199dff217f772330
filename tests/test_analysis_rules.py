"""Positive and negative cases for every xqlint rule (XQL000–XQL009)."""

from repro.xquery import EngineConfig, parse_query
from repro.xquery.analysis import analyze_module, analyze_source, parse_for_lint
from repro.xquery.errors import XQueryError
from repro.xquery.optimizer import optimize_module


def codes(source, **kwargs):
    return [d.code for d in analyze_source(source, **kwargs)]


class TestParseErrors:
    def test_unparseable_input_is_a_diagnostic_not_an_exception(self):
        diagnostics = analyze_source("for $x in", source_label="bad.xq")
        assert [d.code for d in diagnostics] == ["XQL000"]
        assert diagnostics[0].severity == "error"
        assert diagnostics[0].spec_code == "XPST0003"
        assert diagnostics[0].source == "bad.xq"

    def test_parse_error_location_is_from_the_original_source(self):
        (diagnostic,) = analyze_source("not-closed(")
        assert diagnostic.line == 1

    def test_library_module_without_body_is_linted(self):
        # a prolog-only library parses (and lints) via the dummy-body retry
        diagnostics = analyze_source(
            "declare function local:helper($x) { $x + 1 };"
        )
        assert "XQL000" not in [d.code for d in diagnostics]
        # and unused-function does NOT fire: there is no body to call from
        assert "XQL005" not in [d.code for d in diagnostics]


class TestDeadTrace:
    DEAD = 'let $x := 6 * 7 let $dummy := trace("x=", $x) return $x'
    LIVE = 'let $x := trace("x=", 6 * 7) return $x'

    def test_trace_in_dead_let_fires(self):
        assert "XQL001" in codes(self.DEAD)

    def test_location_points_at_the_dead_binding(self):
        (diagnostic,) = [
            d for d in analyze_source(self.DEAD) if d.code == "XQL001"
        ]
        assert diagnostic.line == 1
        assert diagnostic.column == 21  # the $dummy binding

    def test_trace_in_live_binding_does_not_fire(self):
        assert "XQL001" not in codes(self.LIVE)

    def test_severity_escalates_when_the_engine_will_eat_it(self):
        module = parse_query(self.DEAD)
        config = EngineConfig(optimize=True, trace_is_dead_code=True)
        (diagnostic,) = [
            d for d in analyze_module(module, config=config) if d.code == "XQL001"
        ]
        assert diagnostic.severity == "error"

    def test_plain_warning_without_the_buggy_optimizer(self):
        (diagnostic,) = [
            d for d in analyze_source(self.DEAD) if d.code == "XQL001"
        ]
        assert diagnostic.severity == "warning"

    def test_dead_let_with_error_call_is_not_xql001(self):
        # error() is a real side effect: the optimizer keeps the binding
        source = 'let $x := 1 let $d := (trace("t", 1), error("boom")) return $x'
        assert "XQL001" not in codes(source)

    def test_fires_when_the_only_reader_is_itself_deleted(self):
        # the inner let $c is dead, so nothing that survives reads $a
        source = 'let $a := trace("x", 1) let $b := (let $c := $a return 5) return $b'
        (diagnostic,) = [d for d in analyze_source(source) if d.code == "XQL001"]
        assert "$a" in diagnostic.message

    def test_fires_for_a_trace_reached_through_a_call(self):
        source = (
            'declare function local:log($m) { trace($m, 1) }; '
            'let $d := local:log("x") return 1'
        )
        assert [d.code for d in analyze_source(source) if d.code.startswith("XQL00")] == [
            "XQL001"
        ]

    def test_counts_exactly_the_traces_the_dead_code_pass_deletes(self):
        # over the parser-parity corpus (docgen, examples, fuzz pins,
        # generated, calculus and search programs), one warning per trace
        # the 2004 pass reports deleting
        from test_xquery_parser_parity import corpus

        warned = removed = 0
        for source in corpus():
            try:
                module, has_body = parse_for_lint(source)
            except XQueryError:
                continue
            found = analyze_module(module, has_body=has_body, select=["XQL001"])
            stats = optimize_module(module, trace_is_dead_code=True)
            assert len(found) == stats.traces_removed, source
            warned += len(found)
            removed += stats.traces_removed
        assert warned == removed == 5


ERROR_CONVENTION_PRELUDE = """
declare function local:is-error($v)
  { count($v) eq 1 and $v instance of element(error) };
declare function local:mk-error($m) { <error>{ $m }</error> };
declare function local:lookup($x)
  { if (empty($x)) then local:mk-error("missing") else $x };
"""


class TestUncheckedErrorValue:
    def test_embedding_fallible_result_in_content_fires(self):
        source = ERROR_CONVENTION_PRELUDE + "<out>{ local:lookup(()) }</out>"
        assert "XQL002" in codes(source)

    def test_checked_result_does_not_fire(self):
        source = ERROR_CONVENTION_PRELUDE + (
            "let $r := local:lookup(()) return "
            'if (local:is-error($r)) then "failed" else <out>{ $r }</out>'
        )
        assert "XQL002" not in codes(source)

    def test_tail_propagation_inside_a_function_does_not_fire(self):
        # returning the fallible result unchecked IS the convention:
        # the caller checks.
        source = ERROR_CONVENTION_PRELUDE + (
            "declare function local:outer($x) { local:lookup($x) };"
            "let $r := local:outer(()) return "
            "if (local:is-error($r)) then () else $r"
        )
        assert "XQL002" not in codes(source)

    def test_calling_the_constructor_itself_does_not_fire(self):
        # mk-error is intentional construction, not an unchecked use
        source = ERROR_CONVENTION_PRELUDE + 'local:mk-error("on purpose")'
        assert "XQL002" not in codes(source)

    def test_fallibility_propagates_through_wrappers(self):
        source = ERROR_CONVENTION_PRELUDE + (
            "declare function local:wrapper($x) { local:lookup($x) };"
            "<out>{ local:wrapper(()) }</out>"
        )
        assert "XQL002" in codes(source)

    def test_without_a_checker_the_convention_is_not_in_force(self):
        # modules that never declare is-error aren't using the convention
        source = (
            "declare function local:mk($m) { <error>{ $m }</error> };"
            "<out>{ local:mk('x') }</out>"
        )
        assert "XQL002" not in codes(source)


class TestPositionalPredicates:
    def test_index_beyond_known_length_is_an_error(self):
        diagnostics = [
            d for d in analyze_source("(1, 2)[3]") if d.code == "XQL003"
        ]
        assert [d.severity for d in diagnostics] == ["error"]

    def test_index_zero_is_an_error(self):
        diagnostics = [
            d for d in analyze_source("(1, 2)[0]") if d.code == "XQL003"
        ]
        assert [d.severity for d in diagnostics] == ["error"]

    def test_e1_concatenation_of_unknown_parts_warns(self):
        source = (
            "declare variable $x external; declare variable $y external;"
            "declare variable $z external; ($x, $y, $z)[2]"
        )
        diagnostics = [d for d in analyze_source(source) if d.code == "XQL003"]
        assert [d.severity for d in diagnostics] == ["warning"]

    def test_position_eq_form_is_recognized(self):
        assert "XQL003" in codes("(1, 2)[position() = 5]")

    def test_indexing_exactly_one_parts_is_clean(self):
        assert "XQL003" not in codes("(1, 2, 3)[2]")

    def test_paper_idiom_path_then_first_is_clean(self):
        # the corpus' `(path)[1]` idiom must never be flagged
        source = "declare variable $doc external; ($doc/child::a)[1]"
        assert "XQL003" not in codes(source)

    def test_let_bound_cardinality_is_tracked(self):
        source = "let $pair := (1, 2) return $pair[5]"
        diagnostics = [d for d in analyze_source(source) if d.code == "XQL003"]
        assert [d.severity for d in diagnostics] == ["error"]


class TestAttributeFolding:
    def test_leading_computed_attribute_in_direct_content_is_noted(self):
        diagnostics = [
            d
            for d in analyze_source("<a>{ attribute x { 1 } }</a>")
            if d.code == "XQL004"
        ]
        assert [d.severity for d in diagnostics] == ["info"]

    def test_attribute_after_content_is_an_error(self):
        diagnostics = [
            d
            for d in analyze_source("<a>text{ attribute x { 1 } }</a>")
            if d.code == "XQL004"
        ]
        assert any(d.severity == "error" for d in diagnostics)
        assert any(d.spec_code == "XQTY0024" for d in diagnostics)

    def test_duplicate_attribute_name_warns(self):
        diagnostics = [
            d
            for d in analyze_source('<a x="1">{ attribute x { 2 } }</a>')
            if d.code == "XQL004"
        ]
        assert any(d.severity == "warning" for d in diagnostics)

    def test_attribute_flow_through_let_is_tracked(self):
        source = "let $attr := attribute x { 1 } return <a>text{ $attr }</a>"
        diagnostics = [d for d in analyze_source(source) if d.code == "XQL004"]
        assert any(d.severity == "error" for d in diagnostics)

    def test_plain_element_content_is_clean(self):
        assert "XQL004" not in codes("<a>text{ <b/> }</a>")

    def test_computed_constructor_attrs_first_idiom_is_clean(self):
        # `element e { attribute a {...}, content }` is the idiomatic
        # ordering — no folding surprise to warn about
        source = "element e { attribute a { 1 }, <b/> }"
        assert "XQL004" not in codes(source)

    def test_computed_constructor_attr_after_content_is_an_error(self):
        source = "element e { <b/>, attribute a { 1 } }"
        diagnostics = [d for d in analyze_source(source) if d.code == "XQL004"]
        assert any(d.severity == "error" for d in diagnostics)


    def test_positional_variable_is_not_an_outer_attribute(self):
        # `at $p` rebinds $p to an integer; the output is <e>1 2</e>.
        source = (
            "let $p := attribute a {1} return "
            "<e>{ for $x at $p in (7, 8) return $p }</e>"
        )
        assert "XQL004" not in codes(source)

class TestDeadCode:
    def test_unused_function(self):
        assert "XQL005" in codes(
            "declare function local:orphan($x) { $x }; 42"
        )

    def test_used_function_is_clean(self):
        assert "XQL005" not in codes(
            "declare function local:used($x) { $x }; local:used(1)"
        )

    def test_unused_global_variable(self):
        assert "XQL005" in codes("declare variable $unused := 1; 42")

    def test_unused_let_is_informational(self):
        diagnostics = [
            d
            for d in analyze_source("let $unused := 1 return 42")
            if d.code == "XQL005"
        ]
        assert [d.severity for d in diagnostics] == ["info"]

    def test_constant_condition_unreachable_branch(self):
        assert "XQL005" in codes('if (true()) then 1 else "never"')

    def test_constant_false_where_clause(self):
        assert "XQL005" in codes("for $x in 1 to 3 where false() return $x")

    def test_live_code_is_clean(self):
        assert "XQL005" not in codes(
            "declare variable $n := 2;"
            "for $x in 1 to $n where $x gt 1 return $x"
        )


class TestShadowing:
    def test_let_shadows_let(self):
        assert "XQL006" in codes("let $x := 1 let $x := 2 return $x")

    def test_for_shadows_outer_for(self):
        assert "XQL006" in codes(
            "for $i in 1 to 2 return for $i in 3 to 4 return $i"
        )

    def test_parameter_shadows_global(self):
        assert "XQL006" in codes(
            "declare variable $x := 1;"
            "declare function local:f($x) { $x }; local:f($x)"
        )

    def test_distinct_names_are_clean(self):
        assert "XQL006" not in codes(
            "let $x := 1 let $y := 2 return $x + $y"
        )

    def test_sibling_flwors_do_not_shadow_each_other(self):
        source = (
            "(for $i in 1 to 2 return $i), (for $i in 3 to 4 return $i)"
        )
        assert "XQL006" not in codes(source)


    def test_initializer_binder_shadows_only_earlier_globals(self):
        source = (
            "declare variable $a := 1;"
            "declare variable $b := for $a in (1,2) return $a; $b"
        )
        (diagnostic,) = [d for d in analyze_source(source) if d.code == "XQL006"]
        assert diagnostic.message.startswith("in $b: for binding $a")
        # an initializer sees only the globals declared before it
        later = (
            "declare variable $b := for $a in (1,2) return $a;"
            "declare variable $a := 1; ($b, $a)"
        )
        assert "XQL006" not in codes(later)

class TestRehomedChecks:
    def test_undefined_variable_is_xql007(self):
        diagnostics = [d for d in analyze_source("$nope") if d.code == "XQL007"]
        assert len(diagnostics) == 1
        assert diagnostics[0].spec_code == "XPST0008"
        assert diagnostics[0].severity == "error"

    def test_unknown_function_is_xql008(self):
        diagnostics = [
            d for d in analyze_source("no-such-fn(1)") if d.code == "XQL008"
        ]
        assert len(diagnostics) == 1
        assert diagnostics[0].spec_code == "XPST0017"

    def test_wrong_arity_is_xql008(self):
        assert "XQL008" in codes("count(1, 2, 3)")

    def test_clean_module_has_neither(self):
        found = codes("declare function local:f($x) { $x + 1 }; local:f(2)")
        assert "XQL007" not in found
        assert "XQL008" not in found


class TestCartesianProduct:
    NODES = 'doc("m")/model/node'
    RELS = 'doc("m")/model/relation'

    def test_unlinked_second_for_fires(self):
        found = [
            d
            for d in analyze_source(
                f"for $a in {self.NODES} for $b in {self.RELS} return $b"
            )
            if d.code == "XQL009"
        ]
        assert len(found) == 1
        assert "$b" in found[0].message
        assert found[0].severity == "warning"

    def test_join_predicate_in_source_is_clean(self):
        source = (
            f"for $a in {self.NODES} "
            f"for $b in {self.RELS}[@source eq $a/@id] return $b"
        )
        assert "XQL009" not in codes(source)

    def test_where_clause_join_is_clean(self):
        source = (
            f"for $a in {self.NODES} for $b in {self.RELS} "
            f"where $b/@source eq $a/@id return $b"
        )
        assert "XQL009" not in codes(source)

    def test_where_on_one_side_only_still_fires(self):
        source = (
            f"for $a in {self.NODES} for $b in {self.RELS} "
            f'where $b/@type eq "calls" return $b'
        )
        assert "XQL009" in codes(source)

    def test_nested_flwor_spelling_fires_once(self):
        source = (
            f"for $a in {self.NODES} return "
            f"for $b in {self.RELS} return ($a, $b)"
        )
        assert codes(source).count("XQL009") == 1

    def test_nested_flwor_with_join_predicate_is_clean(self):
        source = (
            f"for $a in {self.NODES} return "
            f"for $b in {self.RELS}[@target eq $a/@id] return $b"
        )
        assert "XQL009" not in codes(source)

    def test_let_mediated_where_join_is_clean(self):
        # the join goes through a let derived from the suspect binding
        source = (
            f"for $a in {self.NODES} for $b in {self.RELS} "
            f"let $k := $b/@source where $k eq $a/@id return $b"
        )
        assert "XQL009" not in codes(source)

    def test_source_through_derived_let_is_clean(self):
        # root($a) taints $r; $r-based sources are joined via the predicate
        source = (
            f"for $a in {self.NODES} let $r := root($a) "
            f"for $b in $r/model/relation[@source eq $a/@id] return $b"
        )
        assert "XQL009" not in codes(source)

    def test_single_for_never_fires(self):
        assert "XQL009" not in codes(f"for $a in {self.NODES} return $a")

    def test_literal_singleton_source_is_not_flagged(self):
        assert "XQL009" not in codes(
            f"for $a in {self.NODES} for $b in 3 return $a"
        )


class TestSelectionAndOrdering:
    SOURCE = 'let $d := trace("t", 1) return $nope'

    def test_select_restricts_rules(self):
        assert codes(self.SOURCE, select=["XQL001"]) == ["XQL001"]

    def test_ignore_drops_rules(self):
        assert "XQL001" not in codes(self.SOURCE, ignore=["XQL001"])

    def test_diagnostics_are_sorted_by_location(self):
        diagnostics = analyze_source(self.SOURCE)
        keys = [(d.line, d.column) for d in diagnostics]
        assert keys == sorted(keys)

    def test_source_label_is_applied(self):
        diagnostics = analyze_source(self.SOURCE, source_label="q.xq")
        assert all(d.source == "q.xq" for d in diagnostics)

    def test_render_shape(self):
        (diagnostic,) = analyze_source("$nope", source_label="q.xq")
        text = diagnostic.render()
        assert text.startswith("q.xq:1:")
        assert "XQL007" in text
        assert "(XPST0008)" in text
        assert "[error]" in text
