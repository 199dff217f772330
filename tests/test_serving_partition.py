"""Units for the serving tier's CRC32 bucket, calculus router, and the
gather merge."""

import zlib

from repro.serving.partition import bucket as tier_bucket
from repro.serving.partition import route_query
from repro.serving.pool import merge_partials


def bucket(value: str, shards: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % shards


def test_hash_scheme_is_process_independent():
    # CRC32, not salted str.hash: workers must agree with the front-end.
    assert tier_bucket("N17", 5) == bucket("N17", 5)


# -- router --------------------------------------------------------------------


def test_one_shard_tier_always_routes_single():
    route = route_query("start(*)|collect(None,asc,distinct)", 1)
    assert route.kind == "single" and route.shard == 0


def test_every_plan_routes_whole_to_its_key_owner():
    keys = [
        "start(*)|collect(None,asc,distinct)",
        "start(type='Host')|collect('label',desc,all)",
        "start(id='N7')|collect(None,asc,distinct)",
        "start(*)|collect(None,asc,distinct)|trace('t')",
    ]
    for shards in (2, 3, 4):
        for key in keys:
            route = route_query(key, shards)
            assert route.kind == "single"
            assert route.shard == bucket(key, shards)
            assert route.reason.startswith("plan-key-owner")


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
