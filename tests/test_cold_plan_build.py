"""A cold calculus plan builds once: one lowering, and no estimate pass,
type pass or closure compiler on the run path.

* **explain pin** — the text and JSON ``explain`` of E18's query and of
  200 ``calc_cold`` fixture plans, ``[occ=...]`` marks included, hashed to
  one sha256 recorded before occurrences moved to explain time.  Never
  re-record it: a changed digest means a changed plan or annotation.
* **no type pass** — with ``TypeAnalyzer`` raising, calculus plans in both
  modes and the search warm set still run, and ``explain`` afterwards
  still annotates occurrences.
* **no estimate pass** — each cold run lowers one program and never calls
  ``estimate_plan``; only ``explain`` does, once per call.
* **no closure compiler** — no plan in the 2,016-query ``calc_cold`` pool
  builds a :class:`~repro.xquery.compiler.Compiler`.
* **shaped property filters** — ``PropertyFilterPred`` against the generic
  closure and the treewalk, over the seven ops and every property shape,
  errors (class, code, message) included.
"""

import hashlib
import json
import random

import pytest

from repro.querycalc import QueryService, parse_query_xml
from repro.workloads import make_it_model
from repro.xquery import EngineConfig, XQueryEngine

E18_QUERY = parse_query_xml(
    """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
    """
)

#: sha256 over the explain corpus below, recorded while every plan still ran
#: the type pass and optimized twice.
EXPLAIN_DIGEST = (
    "17119e97654f610f8fbaedab1876b4e01ac3b7cb04d211a969a005359b216693"
)


def fixture_queries(count):
    """The first *count* ``calc_cold`` fixture plans and their model."""
    from bench.workloads import FIXTURE_SEED, calculus_model, distinct_queries

    model = calculus_model()
    return model, distinct_queries(random.Random(FIXTURE_SEED), model, count)


def explain_corpus():
    """Every explanation the pin covers, in a fixed order: E18's query at
    its three scales (service explain cold, after a run, and the engine's
    catalog-free explain), then 200 fixture plans explained cold and after
    a run."""
    entries = []
    for scale in (8, 24, 48):
        model = make_it_model(scale=scale)
        service = QueryService(model)
        entries.append(service.explain(E18_QUERY))
        service.run(E18_QUERY)
        entries.append(service.explain(E18_QUERY))
        source = service._plan(E18_QUERY).source
        entries.append(XQueryEngine(EngineConfig(backend="algebra")).compile(source).explain())
    model, queries = fixture_queries(200)
    cold, warm = QueryService(model), QueryService(model)
    for query in queries:
        entries.append(cold.explain(query))
    for query in queries:
        warm.run(query)
        entries.append(warm.explain(query))
    return entries


def explain_corpus_digest():
    digest = hashlib.sha256()
    for entry in explain_corpus():
        digest.update(json.dumps(entry, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_explain_text_and_json_match_the_recorded_pin():
    assert explain_corpus_digest() == EXPLAIN_DIGEST


# -- no type pass on the run path ----------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("the static-type pass ran on the run path")


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_plans_run_without_the_type_pass(monkeypatch, mode):
    from bench.workloads import SearchRW
    from repro.collections import DocumentStore, SearchService
    from repro.querycalc.native import run_query
    from repro.xquery.analysis.types import TypeAnalyzer

    model, queries = fixture_queries(300)
    search = SearchRW(1, smoke=True)
    store = DocumentStore()
    for uri, text in search.texts:
        store.put_text(uri, text)
    # patched before any worker forks, so the workers inherit it
    monkeypatch.setattr(TypeAnalyzer, "__init__", _refuse)
    with QueryService(model, mode=mode, workers=2) as service:
        for query in queries:
            assert [n.id for n in service.run(query)] == [
                n.id for n in run_query(query, model)
            ]
        # on the algebra: a raising type pass would have sent each plan to
        # the treewalk retry instead
        stats = service.metrics() if mode == "thread" else service.serving_stats()
        assert stats["fallbacks"] == 0
        searcher = SearchService(store, shards=2 if mode == "process" else 1, mode=mode)
        try:
            for request in search.warm:
                assert searcher.run(request).text == searcher.evaluate_fresh(
                    request, use_index=False
                )
        finally:
            searcher.close()
        with pytest.raises(AssertionError):
            service.explain(queries[0])
        monkeypatch.undo()
        # explain computes occurrences after the fact, on the same plans
        for query in queries[:20]:
            assert "[occ=" in service.explain(query)["text"]


# -- no estimate pass on the run path -------------------------------------------


def test_no_cold_run_calls_the_estimate_pass(monkeypatch):
    """Each cold ``service.run`` lowers one program and runs the plan
    lowering fixed: the estimate pass belongs to ``explain`` alone.  The
    shard worker drops the program with the run, so the plan is captured
    as it lowers rather than read back from a cache."""
    import repro.xquery.algebra as algebra
    from repro.xquery.algebra import optimize

    estimated = []
    lowered = []
    estimate_plan = optimize.estimate_plan
    lower = algebra.AlgebraProgram.__init__

    def counting(plan, stats=None):
        estimated.append(plan)
        return estimate_plan(plan, stats)

    def capturing(self, *args, **kwargs):
        lower(self, *args, **kwargs)
        lowered.append(self)

    monkeypatch.setattr(optimize, "estimate_plan", counting)
    monkeypatch.setattr(algebra.AlgebraProgram, "__init__", capturing)
    model, queries = fixture_queries(60)
    service = QueryService(model)

    def run_cold(query):
        programs = len(lowered)
        service.run(query)
        assert len(lowered) == programs + 1

    for query in queries:
        run_cold(query)
    # a warm run is a result-cache hit: nothing lowers
    for query in queries[:10]:
        service.run(query)
    assert len(lowered) == len(queries)
    # a rerun after invalidation compiles afresh
    service.invalidate()
    for query in queries[:10]:
        run_cold(query)
    assert estimated == []
    # explain compiles through the engine's LRU: a repeat reuses its plan,
    # and each explain estimates it once
    for query in queries[:10]:
        service.explain(query)
        programs = len(lowered)
        service.explain(query)
        assert len(lowered) == programs
        assert estimated[-1] is estimated[-2] is lowered[-1].plan
    assert len(estimated) == 20


# -- no closure compiler -------------------------------------------------------


def test_no_calculus_plan_builds_the_closure_compiler(monkeypatch):
    """The whole 2,016-query ``calc_cold`` pool (16 warm-up plans and the
    2,000 a full run cycles through) runs without the closure compiler."""
    import repro.xquery.algebra as algebra
    from bench.workloads import CalcCold, pool_size
    from repro.querycalc.via_xquery import XQueryCalculusBackend

    class NoCompiler:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a calculus plan built the closure compiler")

    monkeypatch.setattr(algebra, "Compiler", NoCompiler)
    model, queries = fixture_queries(CalcCold.WARMUP + pool_size(smoke=False))
    assert len(queries) == 2016
    engine = XQueryEngine(EngineConfig(backend="algebra", compile_cache_size=0))
    backend = XQueryCalculusBackend(model, engine=engine)
    for query in queries:
        backend.run(query)


# -- shaped property filters -----------------------------------------------------

#: one <node> per property shape the differential covers; ``dup-name`` and
#: ``dup-type`` gain a repeated attribute after parsing (the XML parser
#: rejects one, the ``keep`` constructor mode makes one).
SHAPES = {
    "integer": '<property name="p" type="integer">12</property>',
    "negative": '<property name="p" type="integer">-3</property>',
    "float": '<property name="p" type="float">2.5</property>',
    "nan": '<property name="p" type="float">NaN</property>',
    "bad-integer": '<property name="p" type="integer">twelve</property>',
    "true": '<property name="p" type="boolean">true</property>',
    "false": '<property name="p" type="boolean">false</property>',
    "string": '<property name="p">ant3</property>',
    "numeric-string": '<property name="p">12</property>',
    "empty-string": '<property name="p"></property>',
    "other-type": '<property name="p" type="date">2004</property>',
    "html": (
        '<property name="p" type="html"><html-value><p>ant <b>12</b></p>'
        "</html-value></property>"
    ),
    "missing": '<property name="q" type="integer">12</property>',
    "bare": "",
    "nameless": '<property>12</property><property name="p">5</property>',
    "not-property": '<prop name="p">12</prop>',
    "duplicated": (
        '<property name="p" type="integer">1</property>'
        '<property name="p" type="integer">2</property>'
    ),
    "duplicated-mixed": (
        '<property name="p">a</property><property name="p" type="boolean">true</property>'
    ),
    "dup-name": '<property name="p" type="integer">12</property>',
    "dup-type": '<property name="p" type="integer">12</property>',
}

LITERALS = (
    "12", "2.5", "-3", "0", "NaN", "INF", "1e1", " 12 ", "abc", "",
    "true", "false", "TRUE", "ant",
)

OPS = ("eq", "ne", "lt", "le", "gt", "ge", "contains")


def _shape_nodes():
    from repro.xdm import AttributeNode
    from repro.xmlio import parse_document

    body = "".join(
        f'<node id="{shape}" type="User">{props}</node>' for shape, props in SHAPES.items()
    )
    root = parse_document(f"<awb-model>{body}</awb-model>").document_element()
    nodes = {node.get_attribute("id"): node for node in root.child_elements("node")}
    nodes["dup-name"].child_elements("property")[0].append_duplicate_attribute(
        AttributeNode("name", "p")
    )
    nodes["dup-type"].child_elements("property")[0].append_duplicate_attribute(
        AttributeNode("type", "boolean")
    )
    return nodes


def _filter_program(op, literal):
    from repro.querycalc.ast import FilterProperty
    from repro.querycalc.via_xquery import XQueryCalculusBackend
    from repro.testing.models import random_model

    step = XQueryCalculusBackend(random_model(1, size=2))._compile_filter_property(
        FilterProperty(name="p", op=op, value=literal), "local:step1"
    )
    return f"declare variable $nodes external;\n{step}\nlocal:step1($nodes)"


def _outcome(compiled, node, backend):
    try:
        return ("ok", [item.get_attribute("id") for item in compiled.run(
            variables={"nodes": [node]}, backend=backend
        )])
    except Exception as exc:  # the error itself is what is compared
        return ("error", type(exc).__name__, getattr(exc, "code", None), str(exc))


def _predicates(program):
    from repro.xquery.algebra.plans import FilterPlan

    found, stack = [], [program.plan]
    while stack:
        plan = stack.pop()
        if isinstance(plan, FilterPlan):
            found.extend(type(pred).__name__ for pred in plan.predicates)
        stack.extend(child for child in plan.children() if child is not None)
    return found


def test_shaped_property_filter_matches_the_generic_closure(monkeypatch):
    from repro.xquery import compiler

    nodes = _shape_nodes()
    engine = XQueryEngine(EngineConfig(backend="algebra", compile_cache_size=0))
    decided = set()
    for op in OPS:
        for literal in LITERALS:
            source = _filter_program(op, literal)
            shaped = engine.compile(source)
            assert _predicates(shaped.algebra) == ["PropertyFilterPred"]
            generic = engine.compile(source)
            with monkeypatch.context() as patch:
                patch.setattr(compiler, "_property_filter", lambda pred, functions: None)
                assert _predicates(generic.algebra) == ["GenericPred"]
            pred = shaped.algebra.plan.body.predicates[0]
            for shape, node in nodes.items():
                want = _outcome(generic, node, "algebra")
                assert _outcome(shaped, node, "algebra") == want, (op, literal, shape)
                assert _outcome(shaped, node, "treewalk") == want, (op, literal, shape)
                if pred.decide(node) is not None:
                    decided.add(shape)
    # the shape decides every well-formed node itself, and hands back only
    # the repeated property or attribute (dup-type only under contains,
    # which never reads the type)
    assert set(SHAPES) - decided == {"duplicated", "duplicated-mixed", "dup-name"}
