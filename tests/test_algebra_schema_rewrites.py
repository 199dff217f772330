"""Schema-aware explain: estimates and occurrence marks, never the plan.

A catalog only carries the export schema after verifying it against the
walked document.  With it, ``explain`` proves dead paths (``occ=empty``,
0 estimated rows) and singleton joins (``occ=?``); every plan node also
carries ``[occ=...]`` from the static-type pass.  The plan that runs is
fixed at lowering, so none of this changes a result.
"""

import pytest

from repro.awb.xml_io import export_model
from repro.testing.models import random_model
from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.algebra.stats import StatisticsCatalog
from repro.xquery.api import serialize_result


@pytest.fixture(scope="module")
def export():
    model = random_model(20040522, size=30)
    root = export_model(model)
    return root, StatisticsCatalog.from_root(root)


def compile_algebra(source):
    return XQueryEngine(EngineConfig(backend="algebra")).compile(source)


def test_dead_path_estimated_empty(export):
    _, catalog = export
    query = compile_algebra(
        "declare variable $doc external;\n$doc/awb-model/relation/node"
    )
    explanation = query.explain(catalog)
    assert "[occ=" in explanation["text"]
    assert "(~0" in explanation["text"], explanation["text"]


def test_plans_carry_occurrence_annotations(export):
    _, catalog = export
    query = compile_algebra(
        "declare variable $doc external;\n$doc/awb-model/node/@id"
    )
    assert "[occ=" in query.explain(catalog)["text"]


def test_three_hop_join_gets_singleton_occurrence(export):
    root, catalog = export
    source = (
        "declare variable $doc external;\n"
        "for $r in $doc/awb-model/relation\n"
        "for $n in $doc/awb-model/node[@id eq $r/@source]\n"
        "return $n/@type"
    )
    query = compile_algebra(source)
    text = query.explain(catalog)["text"]
    assert "HashJoin" in text, text
    # @id is proven unique (present == count == distinct), so the join
    # probe is a singleton: the op is annotated [occ=?].
    join_lines = [line for line in text.splitlines() if "HashJoin" in line]
    assert any("[occ=?]" in line for line in join_lines), text
    joined = query.run(backend="algebra", variables={"doc": [root]})
    reference = query.run(backend="treewalk", variables={"doc": [root]})
    assert serialize_result(joined) == serialize_result(reference)


def test_explain_includes_static_type(export):
    _, catalog = export
    query = compile_algebra(
        "declare variable $doc external;\n$doc/awb-model/node/@id"
    )
    explanation = query.explain(catalog)
    assert explanation["static_type"] is not None
    assert "attribute(id)" in explanation["static_type"]
