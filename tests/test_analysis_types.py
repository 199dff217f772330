"""The schema-aware type & path inference pass (PR 7's tentpole).

Covers the pieces in dependency order: the occurrence/item lattices, the
whole-module inference (``infer_body_type``), the runtime admission check
the fuzz soundness oracle uses (``check_sequence``), the re-homed
XQL007/XQL008 statictype checks, the three typed lint rules XQL010-XQL012,
and the engine surfaces (``EngineConfig.lint_schema``, ``static_type`` in
explain output).
"""

import pytest

from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.analysis import analyze_source
from repro.xquery.analysis.cardinality import Card, EMPTY, ONE, OPT, PLUS, STAR
from repro.xquery.analysis.schema import awb_export_schema
from repro.xquery.analysis.types import (
    AbstractItem,
    check_sequence,
    infer_body_type,
    join_items,
    occurrence_indicator,
)
from repro.xquery.parser import parse_query


def infer(source):
    return infer_body_type(parse_query(source))


def codes(source, config=None):
    return [d.code for d in analyze_source(source, config=config)]


# -- occurrence indicators ----------------------------------------------------


@pytest.mark.parametrize(
    "card,indicator",
    [(EMPTY, "empty"), (ONE, "1"), (OPT, "?"), (STAR, "*"), (PLUS, "+"),
     (Card(2, 5), "+"), (Card(0, 3), "*")],
)
def test_occurrence_indicator(card, indicator):
    assert occurrence_indicator(card) == indicator


# -- the item lattice ---------------------------------------------------------


def test_join_items_common_atomic_supertype():
    integer = AbstractItem(kind="atomic", atomic="xs:integer")
    double = AbstractItem(kind="atomic", atomic="xs:double")
    string = AbstractItem(kind="atomic", atomic="xs:string")
    assert join_items(integer, integer) == integer
    # integer and double meet at the generic numeric/atomic level, never
    # at one of the two leaves.
    assert join_items(integer, double).atomic not in ("xs:integer", "xs:double")
    assert join_items(integer, string).kind == "atomic"
    assert join_items(integer, string).atomic is None


def test_join_items_node_vs_atomic_is_any_item():
    element = AbstractItem(kind="element", name="a")
    integer = AbstractItem(kind="atomic", atomic="xs:integer")
    assert join_items(element, integer).kind == "item"


# -- whole-body inference -----------------------------------------------------


@pytest.mark.parametrize(
    "source,described",
    [
        ("1 + 2", "xs:integer"),
        ("(1, 2, 3)", "xs:integer+"),
        ("()", "empty-sequence()"),
        ("xs:integer(())", "xs:integer?"),
        ("xs:integer(5)", "xs:integer"),
        ("text { () }", "text()?"),
        ("trace('label', 1)", "xs:integer"),
        ("1 to 5", "xs:integer+"),
        ("if (1 lt 2) then 'a' else 'b'", "xs:string"),
    ],
)
def test_infer_body_type(source, described):
    assert infer(source).describe() == described


def test_declared_function_shadows_builtin():
    # the runtime resolves declarations before builtins at any spelling;
    # the analyzer must agree (fuzz-found soundness bug).
    inferred = infer(
        "declare function local:count($x) { (1, 2, 3) };\nlocal:count(0)"
    )
    assert occurrence_indicator(inferred.card) in ("*", "+")


def test_descendant_attribute_step_is_unbounded():
    inferred = infer("(<r><b x='0'/><b x='1'/></r>)//@x")
    assert inferred.item.kind == "attribute"
    assert occurrence_indicator(inferred.card) == "*"


# -- binders seen through the one scope rule -----------------------------------

#: a typeswitch case variable shadowing an empty outer one: ``[1]`` selects 1.
CASE_VARIABLE = (
    "let $v := () return "
    "(typeswitch (1) case $v as xs:integer return $v default return ())[1]"
)
#: a catch variable shadowing an empty outer one: the handler returns <error>.
CATCH_VARIABLE = (
    "let $v := () return try { let $d := error() return () } catch $v { $v }"
)


@pytest.mark.parametrize("source", [CASE_VARIABLE, CATCH_VARIABLE])
def test_typeswitch_and_catch_variables_are_bound_for_occurrence(source):
    result = XQueryEngine().compile(source).run()
    assert len(result) == 1
    inferred = infer(source)
    assert inferred.describe() != "empty-sequence()"
    assert check_sequence(inferred, result) is None


def test_case_variable_is_no_false_positional_error():
    assert "XQL003" not in codes(CASE_VARIABLE)


# -- check_sequence (the soundness oracle's admission check) ------------------


def test_check_sequence_accepts_inhabitants():
    inferred = infer("(1, 2)")
    assert check_sequence(inferred, [1, 2]) is None


def test_check_sequence_rejects_wrong_length():
    inferred = infer("1")
    message = check_sequence(inferred, [])
    assert message is not None and "below the inferred minimum" in message


def test_check_sequence_rejects_wrong_item():
    inferred = infer("'a'")
    message = check_sequence(inferred, [3])
    assert message is not None and "does not inhabit" in message


# -- re-homed statictype checks (XQL007/XQL008 still fire) --------------------


def test_undefined_variable_still_reported():
    assert "XQL007" in codes("$nope + 1") or any(
        c in ("XQL007", "XQL008") for c in codes("$nope + 1")
    )


# -- the typed rules ----------------------------------------------------------


DEAD_PATHS = [
    "declare variable $m external;\n$m/awb-model/relation/node",
    "declare variable $m external;\n$m/awb-model/node/@source",
    "declare variable $m external;\n$m/awb-model/widget",
]
ILL_TYPED = [
    '"three" + 1',
    '5 lt "five"',
    "-'oops'",
]
VACUOUS = [
    'declare variable $m external;\n$m/awb-model/node/property[@type eq "string"]',
    "declare variable $m external;\n$m/awb-model/node[@id]",
    'declare variable $m external;\n$m/awb-model/relation[@missing]',
]


@pytest.mark.parametrize("source", DEAD_PATHS)
def test_xql010_dead_paths(source):
    assert "XQL010" in codes(source)


@pytest.mark.parametrize("source", ILL_TYPED)
def test_xql011_ill_typed_operators(source):
    assert "XQL011" in codes(source)


@pytest.mark.parametrize("source", VACUOUS)
def test_xql012_vacuous_predicates(source):
    assert "XQL012" in codes(source)


def test_lint_schema_off_disables_typed_rules():
    config = EngineConfig(lint_schema="off")
    for source in DEAD_PATHS + VACUOUS:
        found = codes(source, config=config)
        assert "XQL010" not in found and "XQL012" not in found


def test_lint_schema_validation():
    with pytest.raises(ValueError):
        EngineConfig(lint_schema="relaxng")


def test_live_queries_stay_clean():
    # the via-xquery calculus templates navigate the real export; the
    # typed rules must not cry wolf on them.
    source = (
        "declare variable $model external;\n"
        "$model/awb-model/node[@type eq 'Server']/@id"
    )
    assert codes(source) == []


def test_lint_error_mode_rejects_dead_path():
    from repro.xquery.errors import XQueryStaticError

    engine = XQueryEngine(EngineConfig(lint="error"))
    with pytest.raises(XQueryStaticError):
        engine.compile("declare variable $m external;\n$m/awb-model/nodes")


# -- explain surfaces ---------------------------------------------------------


def test_explain_reports_static_type():
    engine = XQueryEngine(EngineConfig(backend="algebra"))
    query = engine.compile("(1, 2, 3)")
    explanation = query.explain()
    assert explanation["static_type"] == "xs:integer+"


def test_schema_shapes_findings_not_types():
    # the schema licenses findings but must never narrow inference: a
    # constructed <awb-model> element can violate it freely.
    schema = awb_export_schema()
    source = "<awb-model><bogus/></awb-model>/bogus"
    module = parse_query(source)
    inferred = infer_body_type(module, schema=schema)
    runtime = XQueryEngine(EngineConfig()).compile(source).run(backend="treewalk")
    assert check_sequence(inferred, list(runtime)) is None
