"""Unit tests for the algebra backend (``EngineConfig(backend="algebra")``).

Result *parity* with the treewalk is enforced wholesale by
``tests/test_backend_parity.py`` and the differential fuzzer; this file
tests the machinery itself — what lowering produces, what the statistics
catalog measures, the fixed predicate order, how the shared scan cache
behaves across runs, and what ``explain`` reports (and never changes).
"""

import json
import threading

import pytest

from repro.querycalc import QueryService, parse_query_xml
from repro.lru import LRU
from repro.workloads import make_it_model
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.algebra import DEFAULT_STATS, StatisticsCatalog

DOC = parse_document(
    """<awb-model>
  <node id="n1" type="User"><property name="label" type="string">ann</property></node>
  <node id="n2" type="User"><property name="label" type="string">bob</property></node>
  <node id="s1" type="Server"><property name="label" type="string">web</property></node>
  <relation id="r1" type="uses" source="n1" target="s1"/>
  <relation id="r2" type="uses" source="n2" target="s1"/>
  <relation id="r3" type="runs" source="s1" target="n1"/>
</awb-model>"""
)

JOIN_QUERY = (
    "declare variable $model external;\n"
    "for $n in $model/node[@type = (\"User\")]\n"
    "for $r in root($n)/awb-model/relation[@type = (\"uses\")]"
    "[@source eq $n/@id]\n"
    "return root($n)/awb-model/node[@id eq $r/@target]"
)


def compile_algebra(source, config=None):
    config = config or EngineConfig(backend="algebra")
    return XQueryEngine(config).compile(source)


def run_both(source, **kwargs):
    results = {}
    for backend in ("treewalk", "algebra"):
        engine = XQueryEngine(EngineConfig(backend=backend))
        results[backend] = engine.compile(source).run(**kwargs)
    return results


# -- lowering shapes ----------------------------------------------------------


class TestLowering:
    def test_follow_join_lowers_to_hash_join(self):
        query = compile_algebra(JOIN_QUERY)
        assert not query.algebra.trivial
        text = query.algebra.explain_text()
        assert "HashJoin $r on @source eq probe" in text
        assert "Scan" in text

    def test_whole_body_fallback_is_trivial(self):
        # quantified expressions are outside the fragment: whole-body fallback
        query = compile_algebra("some $x in (1,2,3) satisfies $x > 2")
        assert query.algebra.trivial
        assert query.algebra.explain()["fallback"] is True
        assert query.run() == [True]

    def test_constant_body_is_not_a_fallback(self):
        # constant folding runs before lowering: "1 + 1" is a literal plan
        query = compile_algebra("1 + 1")
        assert not query.algebra.trivial
        assert query.run() == [2]

    def test_builtin_call_is_a_pass_through_plan(self):
        # trace() wrapping a path must not hide the scan behind a fallback
        source = 'declare variable $model external; trace("q", $model/node)'
        text = compile_algebra(source).algebra.explain_text()
        assert "Call:trace" in text
        assert "Scan" in text

    def test_positional_predicate_compiles_to_slice(self):
        source = "declare variable $model external; $model/node[2]"
        query = compile_algebra(source)
        assert "position() = 2" in query.algebra.explain_text()
        root = DOC.document_element()
        result = query.run(variables={"model": root})
        assert [item.get_attribute("id") for item in result] == ["n2"]

    def test_join_executes_identically_to_treewalk(self):
        root = DOC.document_element()
        results = run_both(JOIN_QUERY, variables={"model": root})
        assert results["algebra"] == results["treewalk"]
        assert [n.get_attribute("id") for n in results["algebra"]] == ["s1", "s1"]


# -- the statistics catalog ---------------------------------------------------


class TestStatisticsCatalog:
    def test_counts_from_one_walk(self):
        catalog = StatisticsCatalog.from_root(DOC.document_element(), generation=7)
        assert catalog.generation == 7
        assert catalog.element_counts["node"] == 3
        assert catalog.element_counts["relation"] == 3
        assert catalog.element_counts["property"] == 3
        assert catalog.total_elements == 10  # root + 3 + 3 + 3
        assert catalog.attr_distinct[("relation", "source")] == 3
        assert catalog.attr_distinct[("relation", "type")] == 2
        assert catalog.attr_present[("node", "id")] == 3

    def test_estimates(self):
        catalog = StatisticsCatalog.from_root(DOC.document_element())
        assert catalog.element_count("node") == 3
        assert catalog.element_count("missing") == 0
        assert catalog.fanout("node") == 1.0  # one <property> child each
        assert catalog.attr_distinct_count("relation", "source") == 3
        # @id is unique per node: an equality predicate keeps one of three
        assert catalog.attr_selectivity("node", "id") == pytest.approx(1 / 3)

    def test_default_catalog_has_bland_priors(self):
        assert DEFAULT_STATS.is_default
        assert DEFAULT_STATS.element_count("anything") > 0
        assert 0.0 < DEFAULT_STATS.attr_selectivity(None, "id") <= 1.0

    def test_to_dict_is_json_friendly(self):
        catalog = StatisticsCatalog.from_root(DOC.document_element(), generation=1)
        snapshot = json.loads(json.dumps(catalog.to_dict()))
        assert snapshot["generation"] == 1
        assert snapshot["element_counts"]["relation"] == 3
        assert snapshot["attr_distinct"]["relation/@source"] == 3


# -- the fixed plan and explain's estimates ----------------------------------

#: a join with two interchangeable keys, under a step with two reorderable
#: filters: a catalog could rank either pair the other way round.
TWO_KEY_JOIN = (
    "declare variable $model external; "
    'for $n in $model/node[@type eq "User"][@id = ("n1", "n2", "s1")] '
    'let $t := "uses" '
    "for $r in root($n)/awb-model/relation[@type eq $t][@source eq $n/@id] "
    "return $r"
)


def skewed_catalog(distincts):
    """A catalog ranking the relation keys by *distincts* alone."""
    catalog = StatisticsCatalog()
    catalog.total_elements = 10
    catalog.element_counts = {"node": 3, "relation": 3}
    catalog.attr_distinct = distincts
    return catalog


class TestOptimizer:
    def test_most_selective_predicate_goes_first(self):
        # the fixed priors: @a eq 0.1, membership 0.1 per value, existence
        # 0.8 — written least selective first, reordered at lowering
        source = (
            "declare variable $model external; "
            '$model/node[@id][@type = ("User", "Server")][@id eq "n1"][1]'
            '[@type eq "User"][@id]'
        )
        program = compile_algebra(source).algebra
        (step,) = program.plan.steps
        assert [pred.describe() for pred in step.predicates] == [
            "@id eq 'n1'",
            "@type in ('Server', 'User')",
            "exists(@id)",
            "position() = 1",  # a sequence point: runs never cross it
            "@type eq 'User'",
            "exists(@id)",
        ]
        catalog = StatisticsCatalog.from_root(DOC.document_element())
        for text in (program.explain_text(), program.explain_text(catalog)):
            assert text.index("@id eq") < text.index("@type in") < text.index("exists")

    def test_explain_never_changes_the_plan_that_runs(self, monkeypatch):
        from repro.xquery.algebra import executor

        executed = []
        join_source, apply_preds = executor._join_source, executor._apply_pred_plans

        def recording_join(op, ctx, state):
            residual = tuple(pred.describe() for pred in op.residual)
            executed.append(("join", op.build_attr, residual))
            return join_source(op, ctx, state)

        def recording_preds(items, predicates, *args):
            executed.append(tuple(pred.describe() for pred in predicates))
            return apply_preds(items, predicates, *args)

        monkeypatch.setattr(executor, "_join_source", recording_join)
        monkeypatch.setattr(executor, "_apply_pred_plans", recording_preds)
        root = DOC.document_element()
        query = compile_algebra(TWO_KEY_JOIN)
        reference = query.run(variables={"model": root}, backend="treewalk")
        assert [r.get_attribute("id") for r in reference] == ["r1", "r2"]

        def run_once():
            executed.clear()
            assert query.run(variables={"model": root}) == reference
            return set(executed)

        plan = run_once()
        # lowering hashes on the first key it finds; @source stays a residual
        assert [entry[1] for entry in plan if entry[0] == "join"] == ["type"]
        catalogs = [
            skewed_catalog({("relation", "source"): 100, ("relation", "type"): 2}),
            skewed_catalog({("relation", "source"): 2, ("relation", "type"): 100}),
        ]
        for catalog in catalogs:
            query.explain(catalog)
            assert run_once() == plan
        # runs racing explains over both catalogs
        failures = []

        def reader():
            for _ in range(30):
                if query.run(variables={"model": root}) != reference:
                    failures.append("results")

        def explainer():
            for index in range(30):
                query.explain(catalogs[index % 2])

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=explainer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert set(executed) == plan

    def test_reoptimizing_for_new_stats_preserves_results(self):
        # explain is the only pass a catalog reaches; runs after it answer
        # as before, and as the treewalk does
        query = compile_algebra(JOIN_QUERY)
        root = DOC.document_element()
        baseline = query.run(variables={"model": root})
        assert baseline == query.run(variables={"model": root}, backend="treewalk")
        for catalog in (StatisticsCatalog.from_root(root), DEFAULT_STATS):
            query.explain(catalog)
            assert query.run(variables={"model": root}) == baseline

    def test_estimates_are_annotated_for_explain(self):
        catalog = StatisticsCatalog.from_root(DOC.document_element())
        plan = json.loads(compile_algebra(JOIN_QUERY).algebra.explain_json(catalog))
        assert plan["backend"] == "algebra"
        assert plan["fallback"] is False

        def rows(node):
            yield node.get("est_rows")
            for child in node.get("children", []):
                yield from rows(child)

        estimates = [r for r in rows(plan["plan"]) if r is not None]
        assert estimates, "explain JSON must carry est_rows annotations"


# -- shared scan/build memoization -------------------------------------------


class TestSharedEvalCache:
    def test_join_builds_are_shared_across_runs(self):
        query = compile_algebra(JOIN_QUERY)
        root = DOC.document_element()
        cache = LRU(None)
        first = query.run(variables={"model": root}, algebra_cache=cache)
        after_first = cache.stats()
        assert after_first["currsize"] > 0
        second = query.run(variables={"model": root}, algebra_cache=cache)
        assert second == first
        assert cache.stats()["hits"] > after_first["hits"]

    def test_runs_without_a_cache_are_isolated(self):
        query = compile_algebra(JOIN_QUERY)
        root = DOC.document_element()
        assert query.run(variables={"model": root}) == query.run(
            variables={"model": root}
        )


# -- the service and CLI surfaces --------------------------------------------


FOLLOW_XML = (
    '<query><start type="User"/><follow relation="uses"/>'
    '<collect sort-by="label"/></query>'
)


class TestServiceIntegration:
    def test_service_defaults_to_the_algebra_backend(self):
        service = QueryService(make_it_model(scale=3))
        assert service.engine.config.backend == "algebra"

    def test_service_explain_shows_the_join(self):
        service = QueryService(make_it_model(scale=3))
        explanation = service.explain(parse_query_xml(FOLLOW_XML))
        assert explanation["backend"] == "algebra"
        assert "HashJoin" in explanation["text"]
        assert explanation["plan_key"]

    def test_metrics_expose_compile_and_algebra_caches(self):
        service = QueryService(make_it_model(scale=3))
        service.run(parse_query_xml(FOLLOW_XML))
        metrics = service.metrics()
        assert metrics["compile_cache"] is not None
        assert "hits" in metrics["compile_cache"]
        assert metrics["algebra_cache"] is not None


class TestCli:
    def test_explain_text(self, capsys):
        from repro.xquery.__main__ import main

        assert main(["--explain", JOIN_QUERY]) == 0
        out = capsys.readouterr().out
        assert "HashJoin" in out

    def test_explain_json(self, capsys):
        from repro.xquery.__main__ import main

        assert main(["--explain", "--explain-format", "json", JOIN_QUERY]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "algebra"
        assert payload["plan"]["op"]

    def test_algebra_backend_runs(self, capsys):
        from repro.xquery.__main__ import main

        assert main(["--backend", "algebra", "1 to 3"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3"
