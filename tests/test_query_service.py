"""The query service: caching, invalidation, batching, metrics, CLI."""

import threading

import pytest

from repro.awb import export_model_text
from repro.lru import LRU
from repro.querycalc import (
    QueryService,
    XQueryCalculusBackend,
    normalize_query,
    parse_query_xml,
    run_query,
)
from repro.querycalc.service import ResultCache
from repro.serving.frontend import QueryPlan, percentile
from repro.workloads import make_it_model

LIKES_USES = """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
"""

ALL_USERS = '<query><start type="User"/><collect sort-by="label"/></query>'

QUERIES = [
    LIKES_USES,
    ALL_USERS,
    '<query><start all="true"/><filter-type type="Program"/><collect/></query>',
    '<query><start type="User"/>'
    '<filter-property name="birthYear" op="ge" value="1970"/>'
    '<collect order="descending"/></query>',
]


@pytest.fixture()
def model():
    return make_it_model(scale=6)


@pytest.fixture()
def service(model):
    return QueryService(model)


def ids(nodes):
    return [node.id for node in nodes]


class TestNormalization:
    def test_equal_queries_share_a_key(self):
        assert normalize_query(parse_query_xml(LIKES_USES)) == normalize_query(
            parse_query_xml(LIKES_USES)
        )

    def test_different_queries_differ(self):
        keys = {normalize_query(parse_query_xml(source)) for source in QUERIES}
        assert len(keys) == len(QUERIES)

    def test_key_is_readable(self):
        key = normalize_query(parse_query_xml(LIKES_USES))
        assert key.startswith("start(type='User')|follow('likes'")


class TestQueryServiceCorrectness:
    @pytest.mark.parametrize("source", QUERIES)
    def test_matches_native_interpreter(self, model, service, source):
        query = parse_query_xml(source)
        assert ids(service.run(query)) == ids(run_query(query, model))

    def test_warm_run_is_a_cache_hit_with_same_results(self, model, service):
        query = parse_query_xml(LIKES_USES)
        first = service.run(query)
        second = service.run(query)
        assert ids(first) == ids(second)
        metrics = service.metrics()
        assert metrics["queries"] == 2
        assert metrics["executed"] == 1
        assert metrics["hits"] == 1

    def test_mutation_invalidates_results(self, model, service):
        query = parse_query_xml(ALL_USERS)
        before = ids(service.run(query))
        added = model.create_node("User", label="AAA-first")
        after = ids(service.run(query))
        assert added.id in after and added.id not in before
        assert after == ids(run_query(parse_query_xml(ALL_USERS), model))

    def test_node_removal_invalidates_results(self, model, service):
        query = parse_query_xml(ALL_USERS)
        victim = model.nodes_of_type("User", include_subtypes=False)[0]
        assert victim.id in ids(service.run(query))
        model.remove_node(victim)
        assert victim.id not in ids(service.run(query))

    def test_property_mutation_invalidates_results(self, model, service):
        source = (
            '<query><start type="User"/>'
            '<filter-property name="firstName" op="eq" value="Zed"/>'
            "<collect/></query>"
        )
        query = parse_query_xml(source)
        assert ids(service.run(query)) == []
        model.nodes_of_type("User")[0].set("firstName", "Zed")
        assert len(ids(service.run(query))) == 1

    def test_results_are_live_model_nodes(self, model, service):
        nodes = service.run(parse_query_xml(ALL_USERS))
        assert all(model.nodes[node.id] is node for node in nodes)

    def test_invalidate_clears_and_recovers(self, model, service):
        query = parse_query_xml(LIKES_USES)
        expected = ids(service.run(query))
        service.invalidate()
        assert ids(service.run(query)) == expected
        assert service.cache_stats()["export"]["full_exports"] == 2


class TestQueryServiceBatch:
    def test_batch_matches_sequential(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES] * 3
        batch = service.run_batch(queries, workers=4)
        assert [ids(result) for result in batch] == [
            ids(run_query(query, model)) for query in queries
        ]

    def test_batch_deduplicates_within_the_batch(self, model, service):
        queries = [parse_query_xml(LIKES_USES) for _ in range(8)]
        service.run_batch(queries, workers=4)
        metrics = service.metrics()
        assert metrics["queries"] == 8
        assert metrics["executed"] == 1
        assert metrics["batch_deduped"] == 7

    def test_in_batch_duplicates_build_no_plan(self, service):
        first, second = (parse_query_xml(source) for source in QUERIES[:2])
        items = service.run_batch([first, second, first, first], workers=2)
        assert ids(items[2]) == ids(items[3]) == ids(items[0])
        assert items[3] is not items[0]
        metrics = service.metrics()
        # duplicates copy their plan's outcome: only distinct plans are
        # planned, and only they leave a latency sample.
        assert (metrics["plan_misses"], metrics["plan_hits"]) == (2, 0)
        assert len(service._latencies) == 2
        assert metrics["queries"] == 4 and metrics["batch_deduped"] == 2

    def test_batch_reuses_result_cache_across_calls(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES]
        service.run_batch(queries)
        service.run_batch(queries)
        metrics = service.metrics()
        assert metrics["executed"] == len(QUERIES)
        assert metrics["hits"] == len(QUERIES)

    def test_empty_batch(self, service):
        assert service.run_batch([]) == []

    def test_single_worker_batch(self, model, service):
        queries = [parse_query_xml(source) for source in QUERIES]
        batch = service.run_batch(queries, workers=1)
        assert [ids(result) for result in batch] == [
            ids(run_query(query, model)) for query in queries
        ]


class TestMetricsAndStats:
    def test_metrics_shape(self, service):
        service.run(parse_query_xml(ALL_USERS))
        metrics = service.metrics()
        for field in (
            "mode", "queries", "batches", "executed", "batch_deduped",
            "errors", "timeouts", "fallbacks", "errors_by_kind",
            "hits", "misses", "plan_hits", "plan_misses", "p50_ms", "p95_ms",
        ):
            assert field in metrics
        assert metrics["p50_ms"] >= 0.0
        assert metrics["p95_ms"] >= metrics["p50_ms"] or metrics["queries"] < 2

    def test_cache_stats_layers(self, service):
        service.run(parse_query_xml(ALL_USERS))
        stats = service.cache_stats()
        assert stats["plans"]["misses"] == 1
        assert stats["results"]["misses"] == 1
        # the shard worker compiles a served plan uncached
        assert stats["compile"]["currsize"] == 0
        assert stats["export"]["full_exports"] == 1

    def test_incremental_export_is_subtree_only_after_point_mutation(
        self, model, service
    ):
        query = parse_query_xml(ALL_USERS)
        service.run(query)
        model.nodes_of_type("User")[0].set("firstName", "Patched")
        service.run(query)
        stats = service.cache_stats()["export"]
        assert stats["full_exports"] == 1
        assert stats["subtree_exports"] == 1


class TestPlanAndResultCacheUnits:
    def test_plan_cache_lru_eviction(self):
        cache = LRU(maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: QueryPlan(k, None))
        stats = cache.stats()
        assert stats["currsize"] == 2
        assert stats["misses"] == 3
        # "a" was evicted; rebuilding it is a miss again
        cache.get_or_build("a", lambda: QueryPlan("a", None))
        assert cache.stats()["misses"] == 4

    def test_lru_unbounded_never_evicts_and_zero_sized_stores_nothing(self):
        unbounded = LRU(maxsize=None)
        for key in range(1000):
            unbounded.put(key, str(key))
        assert unbounded.get(0) == "0"
        assert unbounded.stats() == {
            "hits": 1, "misses": 0, "races": 0, "currsize": 1000, "maxsize": None,
        }
        empty = LRU(maxsize=0)
        empty.put("a", 1)
        assert empty.get("a") is None
        assert empty.get_or_build("b", lambda: 2) == 2
        assert empty.get_or_build("b", lambda: 3) == 3
        assert empty.stats() == {
            "hits": 0, "misses": 3, "races": 0, "currsize": 0, "maxsize": 0,
        }

    def test_plan_cache_counts_a_lost_build_as_a_miss(self, model, monkeypatch):
        """Two threads building one fresh plan both did codegen: the loser
        is a miss and a race, never a hit."""
        service = QueryService(model, mode="thread")
        codegen = XQueryCalculusBackend.compile_to_xquery
        both_building = threading.Barrier(2, timeout=10)

        def racing_codegen(backend, query):
            both_building.wait()
            return codegen(backend, query)

        monkeypatch.setattr(XQueryCalculusBackend, "compile_to_xquery", racing_codegen)
        query = parse_query_xml(LIKES_USES)
        answers = [None, None]

        def read(slot):
            answers[slot] = ids(service.run(query))

        threads = [threading.Thread(target=read, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = ids(run_query(query, model))
        assert answers == [expected, expected]
        plans = service.cache_stats()["plans"]
        counted = {name: plans.get(name) for name in ("hits", "misses", "races")}
        assert counted == {"hits": 0, "misses": 2, "races": 1}
        assert plans["currsize"] == 1

    def test_result_cache_generation_keys_do_not_collide(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"])
        cache.put(("q", 2), ["N2"])
        assert cache.get(("q", 1)) == (["N1"], ())
        assert cache.get(("q", 2)) == (["N2"], ())

    def test_result_cache_returns_copies(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"])
        first_ids, _ = cache.get(("q", 1))
        first_ids.append("N2")
        assert cache.get(("q", 1)) == (["N1"], ())

    def test_result_cache_keeps_traces(self):
        cache = ResultCache(maxsize=8)
        cache.put(("q", 1), ["N1"], traces=["probe 1"])
        assert cache.get(("q", 1)) == (["N1"], ("probe 1",))

    def test_zero_sized_caches_disable_cleanly(self, model):
        service = QueryService(model, plan_cache_size=0, result_cache_size=0)
        query = parse_query_xml(ALL_USERS)
        expected = ids(run_query(query, model))
        assert ids(service.run(query)) == expected
        assert ids(service.run(query)) == expected
        assert service.metrics()["executed"] == 2  # nothing was cached


class TestPercentile:
    """The ceil-based nearest-rank formula (the round() one was off by one)."""

    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_median_of_odd_count_is_the_middle_value(self):
        # round(0.5 * 5) == 2 under banker's rounding — the old bug
        assert percentile([5.0, 1.0, 4.0, 2.0, 3.0], 0.50) == 3.0

    def test_median_of_two(self):
        # nearest-rank p50 of two samples is the lower one (rank ceil(1.0)=1)
        assert percentile([1.0, 2.0], 0.50) == 1.0

    def test_p95_of_one_hundred(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.50) == 50.0

    def test_extremes_clamp(self):
        samples = [1.0, 2.0, 3.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 0.95) == 7.0


class TestBackendParityUnderService:
    def test_service_and_raw_backend_agree(self, model):
        # the service must not change what the engine computes, only when.
        backend = XQueryCalculusBackend(model)
        service = QueryService(model)
        for source in QUERIES:
            query = parse_query_xml(source)
            assert ids(service.run(query)) == ids(backend.run(query))


class TestServiceCli:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "model.xml"
        path.write_text(export_model_text(make_it_model(scale=3)), encoding="utf-8")
        return str(path)

    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "query.xml"
        path.write_text(ALL_USERS, encoding="utf-8")
        return str(path)

    def test_service_backend_agrees_with_native(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        assert calc_main(["--model", model_file, "--query", query_file]) == 0
        native_out = capsys.readouterr().out
        assert (
            calc_main(
                ["--model", model_file, "--query", query_file, "--backend", "service"]
            )
            == 0
        )
        assert capsys.readouterr().out == native_out

    def test_repeat_prints_cold_then_warm(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--repeat", "3",
                "--time",
            ]
        )
        err = capsys.readouterr().err
        assert "run 1" in err and "(cold)" in err
        assert "run 3" in err and "(warm)" in err
        assert "service backend" in err
        assert "result-cache hit(s)" in err

    def test_repeat_works_for_other_backends(self, model_file, query_file, capsys):
        from repro.querycalc.__main__ import main as calc_main

        calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "xquery",
                "--repeat", "2",
                "--time",
            ]
        )
        err = capsys.readouterr().err
        assert "best of 2" in err and "xquery backend" in err

    def test_repeat_rejects_zero(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--repeat", "0",
                ]
            )

    def test_timeout_completes_with_ample_budget(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        assert calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--timeout", "30",
            ]
        ) == 0

    def test_injected_faults_exit_nonzero_with_structured_error(
        self, model_file, query_file, capsys
    ):
        from repro.querycalc.__main__ import main as calc_main

        code = calc_main(
            [
                "--model", model_file,
                "--query", query_file,
                "--backend", "service",
                "--inject-faults", "eval=1.0,kind=dynamic",
                "--time",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "query failed — dynamic:" in err
        assert "1/1 run(s) failed" in err
        assert "error(s)" in err and "fallback(s)" in err

    def test_fault_flags_require_service_backend(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                ["--model", model_file, "--query", query_file, "--timeout", "1"]
            )
        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--inject-faults", "eval=0.5",
                ]
            )

    def test_bad_fault_spec_rejected(self, model_file, query_file):
        from repro.querycalc.__main__ import main as calc_main

        with pytest.raises(SystemExit):
            calc_main(
                [
                    "--model", model_file,
                    "--query", query_file,
                    "--backend", "service",
                    "--inject-faults", "explode=1.0",
                ]
            )
