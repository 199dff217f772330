"""Property suite: sharded execution ≡ single-process execution.

The scatter/gather correctness argument (pipeline steps distribute over
the start-set union; collect is a dedup+sort that merges) is pinned here
over random models and queries with type-partitioned start sets, including
the cases the router *must* scatter (all-nodes starts, type starts whose
subtype closure spans shards) and both sort directions with and without
distinct.  "Identical" means: same node ids in the same order, same trace
messages, and same failure kind when the query fails.
"""

import random

import pytest

from repro.querycalc.ast import Collect, FilterProperty, Query, Start
from repro.querycalc.service import QueryService
from repro.querycalc.service.errors import classify_error
from repro.serving.partition import bucket
from repro.testing.models import random_calculus_query, random_model


def outcome(service, query):
    """One service run, reduced to the comparison currency."""
    try:
        item = service.run(query)
    except Exception as error:
        failure = classify_error(error)
        return ("error", failure.exception, failure.kind)
    return ("ok", tuple(node.id for node in item), tuple(item.traces))


def assert_sharded_parity(model, queries, workers=3):
    reference = QueryService(model)
    sharded = QueryService(model, mode="process", workers=workers)
    try:
        for query in queries:
            expect = outcome(reference, query)
            got = outcome(sharded, query)
            assert got == expect, (
                "query diverged:\n"
                f"  thread : {expect!r}\n  sharded: {got!r}"
            )
        return sharded.metrics()["routes"]
    finally:
        sharded.close()


@pytest.mark.parametrize("seed", [11, 47])
def test_random_queries_identical_to_thread_service(seed):
    model = random_model(seed, size=30)
    rng = random.Random(seed * 13)
    queries = [random_calculus_query(rng, model) for _ in range(18)]
    assert_sharded_parity(model, queries)


def test_forced_cross_shard_order_by_matrix():
    """All-nodes starts force scatter; check every collect combination."""
    model = random_model(7, size=40)
    queries = [
        Query(
            Start(all_nodes=True),
            [],
            Collect(sort_by=sort_by, descending=descending, distinct=distinct),
        )
        for sort_by in (None, "label", "owner", "cost")
        for descending in (False, True)
        for distinct in (True, False)
    ]
    routes = assert_sharded_parity(model, queries)
    assert routes.get("scatter", 0) >= len(queries) / 2


def test_type_start_spanning_shards_scatters_and_matches():
    """A start type whose present subtype closure spans shards."""
    model = random_model(19, size=40)
    present = {node.type_name for node in model.nodes.values()}
    spanning = [
        name
        for name in present
        if len(
            {
                bucket(subtype, 2)
                for subtype in model.metamodel.node_subtype_names(name)
                if subtype in present
            }
        )
        > 1
    ]
    queries = [
        Query(Start(type=name), [], Collect(sort_by="label", descending=d))
        for name in spanning
        for d in (False, True)
    ]
    if not queries:
        pytest.skip("no spanning type in this model draw")
    routes = assert_sharded_parity(model, queries, workers=2)
    assert routes.get("scatter", 0) >= 1


def test_duplicate_preserving_pipeline_counts_match():
    """distinct=False across a fan-in: duplicate multiplicity must survive."""
    model = random_model(29, size=35)
    queries = [
        Query(
            Start(all_nodes=True),
            [FilterProperty(name="status", op="ne", value="retired")],
            Collect(distinct=False, sort_by="label"),
        ),
        Query(Start(all_nodes=True), [], Collect(distinct=False)),
    ]
    assert_sharded_parity(model, queries)


def test_parity_survives_mutation_and_refresh():
    model = random_model(37, size=25)
    rng = random.Random(99)
    reference = QueryService(model)
    sharded = QueryService(model, mode="process", workers=2)
    try:
        for round_index in range(3):
            queries = [random_calculus_query(rng, model) for _ in range(6)]
            for query in queries:
                assert outcome(sharded, query) == outcome(reference, query)
            # mutate: add a node, flip a property, then go again
            model.create_node("Server", label=f"round-{round_index}")
            victim = next(iter(model.nodes.values()))
            victim.set("label", f"mutated-{round_index}")
        assert sharded.metrics()["serving"]["refreshes"] >= 2
    finally:
        sharded.close()
