"""End-to-end tests for the shared-nothing serving tier (mode="process")."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.querycalc.ast import Collect, FilterType, Query, Start
from repro.querycalc.service import (
    QueryOverloadError,
    QueryService,
)
from repro.querycalc.service.errors import classify_error
from repro.querycalc.service.faults import FaultInjector
from repro.querycalc.service.plans import normalize_query
from repro.serving.partition import bucket
from repro.testing.models import (
    random_calculus_query,
    random_document_store,
    random_model,
)

import random
import threading


@pytest.fixture(scope="module")
def model():
    return random_model(101, size=36)


@pytest.fixture(scope="module")
def service(model):
    svc = QueryService(model, mode="process", workers=2)
    yield svc
    svc.close()


def ids(item):
    return [node.id for node in item]


def all_nodes_query(**collect):
    return Query(Start(all_nodes=True), [], Collect(**collect))


# -- construction ------------------------------------------------------------


def test_unknown_mode_rejected(model):
    with pytest.raises(ValueError):
        QueryService(model, mode="fibers")


def test_workers_zero_resolves_to_cpu_count(model):
    svc = QueryService(model, workers=0)
    assert svc.workers == (os.cpu_count() or 1)


# -- execution parity with the thread service --------------------------------


def test_scatter_result_matches_thread_service(model, service):
    reference = QueryService(model)
    query = all_nodes_query(sort_by="label")
    assert ids(service.run(query)) == ids(reference.run(query))


def test_single_route_result_matches(model, service):
    node_id = next(iter(model.nodes))
    reference = QueryService(model)
    query = Query(Start(node_id=node_id), [], Collect())
    assert ids(service.run(query)) == ids(reference.run(query))


def test_traced_query_replays_trace_messages(model, service):
    reference = QueryService(model)
    query = Query(Start(all_nodes=True), [], Collect(), trace="tier-check")
    got = service.run(query)
    want = reference.run(query)
    assert ids(got) == ids(want)
    assert tuple(got.traces) == tuple(want.traces)
    # and the warm hit replays them from the result cache
    warm = service.run(query)
    assert warm.served_from_cache
    assert tuple(warm.traces) == tuple(want.traces)


def test_dangling_start_id_fails_like_thread_mode(model, service):
    from repro.querycalc.native import QueryRuntimeError

    query = Query(Start(node_id="NO-SUCH"), [], Collect())
    with pytest.raises(QueryRuntimeError):
        service.run(query)


# -- caches and result keys ---------------------------------------------------


def test_warm_repeat_is_a_result_cache_hit(model, service):
    query = all_nodes_query(sort_by="label", descending=True)
    cold = service.run(query)
    warm = service.run(query)
    assert not cold.served_from_cache
    assert warm.served_from_cache
    assert ids(cold) == ids(warm)


def record_run_payloads(svc):
    """Wrap every worker handle so each ``run`` payload sent is recorded."""
    sent = []
    for handle in svc._pool.handles:
        def request(op, payload, timeout=None, _inner=handle.request):
            if op == "run":
                sent.append(dict(payload))
            return _inner(op, payload, timeout)

        handle.request = request
    return sent


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_evicted_plan_still_hits_its_cached_result(model, mode):
    """A plan the plan cache evicted is rebuilt with the same result key, so
    its answer is still served from the result cache."""
    queries = [
        all_nodes_query(),
        all_nodes_query(descending=True),
        all_nodes_query(distinct=False),
        Query(Start(node_id=next(iter(model.nodes))), [], Collect()),
    ]
    with QueryService(
        model, mode=mode, workers=2, plan_cache_size=2, result_cache_size=16
    ) as svc:
        for query in queries:
            assert not svc.run(query).served_from_cache
        again = svc.run(queries[0])
        assert again.served_from_cache
        assert svc.metrics()["executed"] == len(queries)
        assert ids(again) == ids(QueryService(model).run(queries[0]))


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_result_key_is_the_generated_source(model, mode):
    """Two spellings that generate one source make one execution and share
    one result-cache entry."""
    label = model.metamodel.label_property
    implicit, explicit = all_nodes_query(), all_nodes_query(sort_by=label)
    with QueryService(model, mode=mode, workers=2) as svc:
        first, second = svc._plan(implicit), svc._plan(explicit)
        assert first.key != second.key
        assert first.cache_key == second.cache_key == first.source == second.source
        cold = svc.run(implicit)
        warm = svc.run(explicit)
        assert not cold.served_from_cache and warm.served_from_cache
        assert ids(cold) == ids(warm)
        assert svc.metrics()["executed"] == 1
        assert svc.cache_stats()["results"]["currsize"] == 1


def _in_process_worker(model):
    """A ShardWorker in this process, plus a ``run`` payload."""
    from repro.awb.xml_io import export_model_text
    from repro.querycalc.via_xquery import XQueryCalculusBackend
    from repro.serving.worker import ShardWorker, WorkerConfig, replica_backend

    backend = replica_backend(export_model_text(model, indent=False), model.metamodel)
    worker = ShardWorker(
        WorkerConfig(shard=0, backend=backend, generation=model.generation)
    )
    payload = {
        "key": "all",
        "source": XQueryCalculusBackend(model).compile_to_xquery(all_nodes_query()),
        "remaining": None,
    }
    return worker, payload


def _broken(message):
    def run(*args, **kwargs):
        raise RuntimeError(message)

    return run


def test_worker_degrades_an_algebra_failure_to_the_treewalk(model, monkeypatch):
    from repro.xquery.algebra import AlgebraProgram

    worker, payload = _in_process_worker(model)
    expected = worker.run(payload)["ids"]
    monkeypatch.setattr(AlgebraProgram, "run", _broken("algebra broken"))
    assert worker.run(payload)["ids"] == expected
    assert worker.stats()["fallbacks"] == 1


def test_worker_surfaces_the_algebra_error_when_both_backends_fail(
    model, monkeypatch
):
    import repro.xquery.api
    from repro.xquery.algebra import AlgebraProgram

    worker, payload = _in_process_worker(model)
    monkeypatch.setattr(AlgebraProgram, "run", _broken("algebra broken"))
    monkeypatch.setattr(repro.xquery.api, "evaluate", _broken("treewalk broken"))
    with pytest.raises(RuntimeError, match="algebra broken"):
        worker.run(payload)
    assert worker.stats()["fallbacks"] == 1


def _type_queries(model):
    """One all-nodes type filter per node type: distinct generated sources."""
    names = sorted({n.type_name for n in model.nodes.values()})
    return [Query(Start(all_nodes=True), [FilterType(type=name)], Collect()) for name in names]


def test_process_mode_metrics_count_worker_fallbacks(model, monkeypatch):
    from repro.querycalc.native import run_query
    from repro.xquery.algebra import AlgebraProgram

    # patched before the workers fork, so every worker inherits it
    monkeypatch.setattr(AlgebraProgram, "run", _broken("algebra broken"))
    queries = _type_queries(model)
    with QueryService(model, mode="process", workers=2) as svc:
        for query in queries:
            assert ids(svc.run(query)) == [node.id for node in run_query(query, model)]
        assert svc.metrics()["executed"] == len(queries)
        assert svc.metrics()["fallbacks"] == len(queries)


def test_thread_mode_stall_does_not_block_a_sibling_read(model):
    """The in-process worker adds no lock: a read stalled inside its run
    leaves a concurrent read of another plan free to finish."""
    stalled, sibling = _type_queries(model)[:2]
    injector = FaultInjector()
    injector.poison(f"type({stalled.steps[0].type!r})", kind="timeout")
    svc = QueryService(model, fault_injector=injector)
    svc.run(all_nodes_query())  # export and catalog built outside the race
    outcome = {}

    def stall():
        try:
            svc.run(stalled, timeout=2.0)
        except Exception as exc:
            outcome["error"] = classify_error(exc)

    reader = threading.Thread(target=stall)
    reader.start()
    try:
        waited = time.monotonic() + 2.0
        while not injector.injected and time.monotonic() < waited:
            time.sleep(0.005)
        assert injector.injected, "the stalled read never reached its run"
        started = time.monotonic()
        served = svc.run(sibling)
        elapsed = time.monotonic() - started
    finally:
        reader.join()
    assert elapsed < 1.0
    assert ids(served) == ids(QueryService(model).run(sibling))
    assert outcome["error"].kind == "timeout"


def test_refresh_on_generation_bump(model):
    svc = QueryService(model, mode="process", workers=2)
    try:
        query = all_nodes_query()
        before = ids(svc.run(query))
        node = svc.model.create_node("Server", label="zz-freshly-added")
        after = svc.run(query)
        assert node.id in ids(after)
        assert not after.served_from_cache
        assert len(ids(after)) == len(before) + 1
        assert svc.metrics()["serving"]["refreshes"] == 1
    finally:
        svc.close()


# -- batches -----------------------------------------------------------------


def test_run_batch_through_process_pool(model, service):
    rng = random.Random(5)
    queries = [random_calculus_query(rng, model) for _ in range(12)]
    reference = QueryService(model)
    items = service.run_batch(queries)
    expect = reference.run_batch(queries)
    assert [ids(i) if i.ok else i.error.kind for i in items] == [
        ids(i) if i.ok else i.error.kind for i in expect
    ]


# -- admission control --------------------------------------------------------


def test_saturated_tier_sheds_with_structured_overload(model):
    injector = FaultInjector(eval_stall_rate=1.0, stall_seconds=0.3)
    svc = QueryService(
        model,
        mode="process",
        workers=1,
        max_pending=1,
        fault_injector=injector,
        default_timeout=5.0,
    )
    try:
        rng = random.Random(0)
        queries = [random_calculus_query(rng, model) for _ in range(6)]
        outcomes = []

        def hit(q):
            try:
                svc.run(q)
                outcomes.append("ok")
            except QueryOverloadError as exc:
                assert exc.code == "XQDY_OVERLOAD"
                outcomes.append("shed")

        threads = [threading.Thread(target=hit, args=(q,)) for q in queries]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert "shed" in outcomes  # the bounded queue refused someone
        assert "ok" in outcomes  # but the tier kept serving
        metrics = svc.metrics()
        assert metrics["shed"] == outcomes.count("shed")
        assert metrics["errors_by_kind"].get("overload") == outcomes.count("shed")
    finally:
        svc.close()


def test_cache_hits_bypass_admission(model):
    svc = QueryService(model, mode="process", workers=1, max_pending=1)
    try:
        query = all_nodes_query()
        svc.run(query)
        # exhaust the admission slot, then serve from cache anyway
        assert svc._admission.acquire(blocking=False)
        try:
            warm = svc.run(query)
            assert warm.served_from_cache
        finally:
            svc._admission.release()
    finally:
        svc.close()


# -- worker lifecycle ---------------------------------------------------------


def test_worker_crash_respawns_and_recovers(model):
    svc = QueryService(model, mode="process", workers=2)
    try:
        query = all_nodes_query()
        before = ids(svc.run(query))
        # murder a worker out from under the pool
        victim = svc._pool.handles[0]
        victim.process.terminate()
        victim.process.join(timeout=5.0)
        # the next cold query that routes there fails once, respawns the
        # worker, and the tier recovers
        fresh = next(
            query
            for query in _type_queries(model)
            if bucket(normalize_query(query), 2) == 0
        )
        with pytest.raises(RuntimeError, match="died mid-request"):
            svc.run(fresh)
        assert ids(svc.run(fresh)) == ids(QueryService(model).run(fresh))
        assert ids(svc.run(query)) == before  # warm path unaffected
        assert victim.restarts == 1
    finally:
        svc.close()


def test_first_boot_exports_nothing_and_a_respawn_exports_the_live_model(
    model, monkeypatch
):
    """Every shard's first boot forks with the front end's backend, so
    nothing is exported; a respawned worker boots from one export of the
    live model and answers as native does."""
    from repro.querycalc.native import run_query
    from repro.serving import pool

    exports = []
    export = pool.export_model_text

    def counting_export(*args, **kwargs):
        exports.append(args[0].generation)
        return export(*args, **kwargs)

    monkeypatch.setattr(pool, "export_model_text", counting_export)
    with QueryService(model, mode="process", workers=3) as svc:
        assert exports == []
        victim = svc._pool.handles[0]
        victim.process.kill()
        victim.process.join(timeout=5.0)
        with pytest.raises(RuntimeError, match="died mid-request"):
            victim.request("stats", {})
        assert victim.restarts == 1 and exports == [model.generation]
        rng = random.Random(11)
        for query in (random_calculus_query(rng, model) for _ in range(8)):
            plan = svc._plan(query)
            reply = victim.request(
                "run", {"key": plan.key, "source": plan.source, "remaining": None}
            )
            assert reply["ids"] == [node.id for node in run_query(query, model)]


@pytest.mark.parametrize("tier", ["query", "search"])
def test_workers_boot_without_parsing(model, tier, monkeypatch):
    """Forked workers adopt what the parent already built: with the model
    import and the XML parser both raising (children inherit the patch),
    every worker still boots and answers like the reference path."""
    from bench.workloads import SearchRW
    from repro.collections import DocumentStore, SearchService
    from repro.collections import store as store_module
    from repro.querycalc.native import run_query
    from repro.serving import worker

    def refuse_to_parse():
        monkeypatch.setattr(worker, "import_model_text", _broken("a worker imported a model"))
        monkeypatch.setattr(store_module, "parse_document", _broken("a worker parsed XML"))

    if tier == "query":
        rng = random.Random(3)
        refuse_to_parse()
        with QueryService(model, mode="process", workers=2) as svc:
            for query in (random_calculus_query(rng, model) for _ in range(50)):
                assert ids(svc.run(query)) == [node.id for node in run_query(query, model)]
        return
    search = SearchRW(1, smoke=True)
    store = DocumentStore()
    for uri, text in search.texts:
        store.put_text(uri, text)
    refuse_to_parse()
    with SearchService(store, shards=2, mode="process") as svc:
        for request in search.warm:
            assert svc.run(request).text == svc.evaluate_fresh(request, use_index=False)


def test_each_query_is_one_worker_round_trip(model):
    """Every query — all nodes, a type start whose subtypes span workers,
    an id start, a traced query — is one ``run`` request to one worker,
    and answers as native does."""
    from repro.querycalc.native import run_query

    present = {node.type_name for node in model.nodes.values()}
    spanning = next(
        name
        for name in sorted(present)
        if len(
            {
                bucket(subtype, 2)
                for subtype in model.metamodel.node_subtype_names(name)
                if subtype in present
            }
        )
        > 1
    )
    queries = [
        all_nodes_query(sort_by="label", descending=True),
        Query(Start(type=spanning), [], Collect(sort_by="label")),
        Query(Start(node_id=next(iter(model.nodes))), [], Collect()),
        Query(Start(all_nodes=True), [], Collect(), trace="one-trip"),
    ]
    twin = QueryService(model)
    for workers in (2, 3):
        with QueryService(model, mode="process", workers=workers) as svc:
            sent = record_run_payloads(svc)
            for query in queries:
                sent.clear()
                got = svc.run(query)
                assert len(sent) == 1
                assert ids(got) == [node.id for node in run_query(query, model)]
                assert tuple(got.traces) == tuple(twin.run(query).traces)
            assert svc.metrics()["routes"] == {"single": len(queries)}


def _tier_under_test(model, tier, shards=2):
    """(service, its worker handles, serve(), reference(), the served
    request's routing key) for one tier."""
    if tier == "query":
        svc = QueryService(model, mode="process", workers=shards)
        twin = QueryService(model)
        query = all_nodes_query(sort_by="label")
        return (
            svc,
            svc._pool.handles,
            lambda: ids(svc.run(query)),
            lambda: ids(twin.run(query)),
            normalize_query(query),
        )
    from repro.collections import SearchRequest, SearchService

    svc = SearchService(
        random_document_store(41, docs=12), shards=shards, mode="process"
    )
    request = SearchRequest(kind="search", collection="", phrase="alpha")
    return (
        svc,
        svc._workers,
        lambda: svc.run(request).text,
        lambda: svc.evaluate_fresh(request, use_index=False),
        request.key(),
    )


@pytest.mark.parametrize("tier", ["query", "search"])
def test_hung_worker_times_out_and_is_respawned(model, tier):
    """Both tiers share one worker handle: a worker that stops answering
    fails the request with a structured XQDY_TIMEOUT and is replaced, and
    the replacement answers like the reference path.  The victim is the
    worker the request's key routes to, by the one rule both tiers use."""
    svc, handles, serve, reference, key = _tier_under_test(model, tier)
    with svc:
        victim = handles[bucket(key, 2)]
        hung = victim.process
        os.kill(hung.pid, signal.SIGSTOP)
        victim.request_timeout = 0.5
        try:
            with pytest.raises(Exception) as caught:
                serve()
        finally:
            if hung.is_alive():
                hung.kill()
        error = classify_error(caught.value)
        assert (error.kind, error.code) == ("timeout", "XQDY_TIMEOUT")
        assert victim.restarts == 1
        assert victim.process is not hung and victim.process.is_alive()
        assert serve() == reference()


@pytest.mark.parametrize("tier", ["query", "search"])
def test_request_after_a_failed_respawn_boots_a_fresh_worker(model, tier):
    """A respawn whose boot fails leaves its handle with no worker.  The
    next request boots one before it sends, instead of failing on the
    missing pipe for good."""
    svc, handles, serve, reference, _ = _tier_under_test(model, tier, shards=1)
    with svc:
        victim = handles[0]
        make_config = victim._make_config
        failures = ["config unavailable"]

        def make_config_failing_once():
            if failures:
                raise ValueError(failures.pop())
            return make_config()

        victim._make_config = make_config_failing_once
        victim.process.kill()
        victim.process.join(timeout=5.0)
        with pytest.raises(ValueError, match="config unavailable"):
            serve()
        assert victim.process is None and victim.restarts == 1
        assert serve() == reference()
        assert victim.restarts == 2 and victim.process.is_alive()


def _tier_booting_with(model, tier, monkeypatch, before_boot):
    """A constructor for a 2-shard process tier of *tier* whose workers
    run ``before_boot(config)`` at the start of their boot."""
    from repro.collections import SearchService
    from repro.collections import service as search_service
    from repro.serving import pool

    if tier == "query":
        module, name = pool, "ShardWorker"
        build = lambda: QueryService(model, mode="process", workers=2)
    else:
        module, name = search_service, "CollectionWorker"
        build = lambda: SearchService(
            random_document_store(41, docs=12), shards=2, mode="process"
        )
    base = getattr(module, name)

    class Worker(base):
        def __init__(self, config):
            before_boot(config)
            super().__init__(config)

    monkeypatch.setattr(module, name, Worker)
    return build


@pytest.mark.parametrize("tier", ["query", "search"])
def test_workers_boot_concurrently(model, tier, monkeypatch):
    """Every shard is forked before any boot reply is read: two 0.4 s
    boots take about one boot, not two."""
    build = _tier_booting_with(model, tier, monkeypatch, lambda config: time.sleep(0.4))
    started = time.perf_counter()
    svc = build()
    elapsed = time.perf_counter() - started
    svc.close()
    assert elapsed < 0.7


@pytest.mark.parametrize("tier", ["query", "search"])
def test_failed_boot_leaves_no_worker(model, tier, monkeypatch):
    """A shard that cannot boot fails the tier with a structured error,
    and neither its sibling's process nor any pipe outlives the failure."""
    from repro.querycalc.service.errors import RemoteQueryError
    from repro.serving import pool

    def fail_shard_one(config):
        if config.shard == 1:
            raise ValueError("shard 1 cannot boot")

    build = _tier_booting_with(model, tier, monkeypatch, fail_shard_one)
    pipes = []
    make_pipe = pool._CTX.Pipe

    def recording_pipe(*args, **kwargs):
        ends = make_pipe(*args, **kwargs)
        pipes.append(ends[0])
        return ends

    monkeypatch.setattr(pool._CTX, "Pipe", recording_pipe)
    alive_before = set(multiprocessing.active_children())
    with pytest.raises(RemoteQueryError) as caught:
        build()
    assert caught.value.remote_exception == "ValueError"
    assert "shard 1 cannot boot" in caught.value.bare_message
    assert set(multiprocessing.active_children()) - alive_before == set()
    assert len(pipes) == 2 and all(conn.closed for conn in pipes)


def test_metrics_expose_p99_and_mode(model, service):
    service.run(all_nodes_query())
    metrics = service.metrics()
    assert metrics["mode"] == "process"
    assert "p99_ms" in metrics
    assert metrics["p99_ms"] >= metrics["p50_ms"] >= 0.0
    serving = metrics["serving"]
    assert serving["shards"] == 2


def test_serving_stats_round_trip(model, service):
    service.run(all_nodes_query(sort_by="owner"))
    stats = service.serving_stats()
    assert stats["shards"] == 2
    assert len(stats["workers"]) == 2
    assert stats["runs"] >= 1
    for worker in stats["workers"]:
        assert worker["generation"] == stats["generation"]


def test_explain_includes_route(model, service):
    node_id = next(iter(model.nodes))
    for query in (all_nodes_query(), Query(Start(node_id=node_id), [], Collect())):
        route = service.explain(query)["route"]
        assert route["kind"] == "single"
        assert route["shard"] == bucket(normalize_query(query), 2)
        assert route["reason"] == "plan-key-owner crc32(key) % 2"


def test_context_manager_closes_pool(model):
    with QueryService(model, mode="process", workers=1) as svc:
        svc.run(all_nodes_query())
        processes = [h.process for h in svc._pool.handles]
    for process in processes:
        process.join(timeout=5.0)
        assert not process.is_alive()
