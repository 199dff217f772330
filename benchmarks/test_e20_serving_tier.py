"""E20 — the shared-nothing serving tier: process workers vs the thread pool.

E15 closed the warm-path gap with caches; its workers column admitted the
honest limitation: a thread pool on CPython adds concurrency, not
parallelism, so the *cold* mix — distinct queries that all miss the
result cache — gains nothing from threads.  E20 measures the tier built
to attack exactly that residue: a pool of worker **processes**, each
holding a full model replica and owning a shard of the start space,
with scatter/gather merges, single-shard routing proofs, per-worker
plan compilation, and admission control in front.

Three sections, each asserted:

* **cold-mix batch throughput** — a 52-query workload of *distinct*
  plans (zero result-cache hits) through thread w=4 vs process
  w=1/2/4.  On a multi-core box the process tier at w=4 must beat the
  thread pool ≥ 1.5× (real parallelism vs GIL time-slicing).  On a
  single-core container that speedup is physically unavailable — the
  gate is then recorded as unenforced (``gate["enforced"]: false``)
  with ``cpu_count`` in the payload, mirroring E15's honesty about its
  workers column.  Parity is asserted before anything is timed.
* **tail latency under open fire** — the loadgen drives ≥100 closed-loop
  clients at a 4-worker tier for a measured window and reports QPS,
  p50/p95/p99, and shed rate.  Availability must be 1.0: every request
  either succeeds or is *deliberately* shed with a structured
  ``XQDY_OVERLOAD`` — never a crash, never an unclassified error.
* **post-burst parity** — whatever state the burst drove the workers
  into, a parity sweep against a thread-mode twin must come back clean.

Methodology matches E13/E15: competitors interleave in one process,
best-of-N rounds, outputs asserted identical before timing.
"""

import os
import time

from conftest import format_table, record_json, record_result
from repro.querycalc import QueryService
from repro.querycalc.ast import (
    Collect,
    FilterProperty,
    FilterType,
    Follow,
    Query,
    Start,
)
from repro.serving.loadgen import parity_sweep, run_load
from repro.workloads import make_it_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALE = 24  # n = 51 nodes, the E15 batch scale
ROUNDS = 2
CONFIGS = [("thread", 4), ("process", 1), ("process", 2), ("process", 4)]
LOAD_CLIENTS = 100
LOAD_DURATION = 2.5
PROCESS_SPEEDUP_GATE = 1.5


def _cold_workload():
    """52 distinct queries: every one is a plan-cache and result-cache miss.

    Four start types × twelve pipeline/collect shapes, plus four
    all-nodes starts that force the router to scatter.  No duplicates —
    the thread pool's dedup advantage (E15's batch win) is deliberately
    taken off the table so the comparison isolates execution.
    """
    queries = []
    for type_name in ("User", "Superuser", "Program", "Server"):
        start = Start(type=type_name)
        queries.extend(
            [
                Query(start, [], Collect()),
                Query(start, [], Collect(descending=True)),
                Query(start, [], Collect(sort_by="label")),
                Query(start, [], Collect(sort_by="label", descending=True)),
                Query(start, [Follow("likes")], Collect()),
                Query(start, [Follow("likes")], Collect(sort_by="label")),
                Query(start, [Follow("uses")], Collect()),
                Query(
                    start,
                    [Follow("uses", target_type="Program")],
                    Collect(sort_by="label"),
                ),
                Query(
                    start,
                    [FilterProperty("birthYear", "ge", "1970")],
                    Collect(),
                ),
                Query(
                    start,
                    [FilterProperty("birthYear", "lt", "1970")],
                    Collect(descending=True),
                ),
                Query(start, [FilterType("Server")], Collect()),
                Query(start, [Follow("likes"), Follow("uses")], Collect()),
            ]
        )
    for sort_by, descending in (
        (None, False),
        (None, True),
        ("label", False),
        ("label", True),
    ):
        queries.append(
            Query(
                Start(all_nodes=True),
                [],
                Collect(sort_by=sort_by, descending=descending),
            )
        )
    return queries


def _batch_ids(service, queries, workers):
    items = service.run_batch(queries, workers=workers)
    out = []
    for item in items:
        assert item.ok, f"cold-mix query failed: {item.error}"
        out.append([node.id for node in item])
    return out


def test_e20_smoke_serving_tier():
    """CI smoke gate: a 2-worker tier answers identically to the thread
    service, survives a short burst with availability 1.0, and passes a
    post-burst parity sweep."""
    model = make_it_model(scale=8)
    queries = _cold_workload()[:12]
    reference = QueryService(model)
    expected = _batch_ids(reference, queries, workers=2)
    with QueryService(model, mode="process", workers=2) as service:
        assert _batch_ids(service, queries, workers=2) == expected
        report = run_load(service, clients=8, duration=1.0, mix="mixed", seed=3)
        assert report["availability"] == 1.0, report["errors_by_kind"]
        assert report["ok"] >= 1
        assert parity_sweep(model, service, seed=3, count=8) == 0


def test_e20_serving_tier_matrix():
    model = make_it_model(scale=SCALE)
    stats = model.stats()
    queries = _cold_workload()
    cpu_count = os.cpu_count() or 1

    # parity first: every config must produce byte-identical id lists.
    reference = QueryService(model)
    expected = _batch_ids(reference, queries, workers=4)

    results = {}
    route_mixes = {}
    for mode, workers in CONFIGS:
        best = float("inf")
        for _ in range(ROUNDS):
            service = QueryService(model, mode=mode, workers=workers)
            try:
                service._snapshot()  # exports + boots outside the timed region
                started = time.perf_counter()
                got = _batch_ids(service, queries, workers=4)
                elapsed = time.perf_counter() - started
                assert got == expected, f"{mode} w={workers} diverged"
                best = min(best, elapsed)
                if mode == "process":
                    route_mixes[workers] = dict(service.metrics()["routes"])
            finally:
                service.close()
        results[(mode, workers)] = best

    thread_qps = len(queries) / results[("thread", 4)]
    process_qps = {
        workers: len(queries) / results[("process", workers)]
        for mode, workers in CONFIGS
        if mode == "process"
    }
    speedup_w4 = process_qps[4] / thread_qps

    # the tentpole gate — real parallelism needs real cores.  On a
    # single-core container the process tier pays IPC for no extra CPU,
    # so the gate is recorded but not enforced (cpu_count is in the
    # payload; see docs/serving.md).  Every gate is asserted only after
    # the results are recorded, so a red run still rewrites them.
    gate_enforced = cpu_count >= 2

    # -- tail latency under load ----------------------------------------------
    with QueryService(model, mode="process", workers=4) as service:
        report = run_load(
            service,
            clients=LOAD_CLIENTS,
            duration=LOAD_DURATION,
            mix="mixed",
            seed=20040522,
        )
        mismatches = parity_sweep(model, service, seed=20040522, count=24)
        post_metrics = service.metrics()

    matrix_rows = [
        (
            f"{mode} w={workers}",
            f"{results[(mode, workers)] * 1000:.0f}ms",
            f"{len(queries) / results[(mode, workers)]:.1f}",
            f"{(len(queries) / results[(mode, workers)]) / thread_qps:.2f}x",
        )
        for mode, workers in CONFIGS
    ]
    load_rows = [
        ("clients", report["clients"]),
        ("window", f"{report['duration_s']:.1f}s"),
        ("requests", report["requests"]),
        ("ok / shed", f"{report['ok']} / {report['shed']}"),
        ("qps", f"{report['qps']:.1f}"),
        ("p50 / p95 / p99", (
            f"{report['p50_ms']:.1f} / {report['p95_ms']:.1f} / "
            f"{report['p99_ms']:.1f} ms"
        )),
        ("shed rate", f"{report['shed_rate'] * 100:.1f}%"),
        ("availability", f"{report['availability'] * 100:.1f}%"),
    ]
    text = (
        f"cold mix: {len(queries)} distinct queries, n={stats['nodes']}, "
        f"cpu_count={cpu_count}\n"
        + format_table(["config", "total", "qps", "vs thread w=4"], matrix_rows)
        + f"\n\nloadgen burst (mixed, {LOAD_CLIENTS} clients)\n"
        + format_table(["metric", "value"], load_rows)
        + f"\n\nprocess-vs-thread gate (>= {PROCESS_SPEEDUP_GATE}x): "
        + ("ENFORCED" if gate_enforced else
           f"recorded only ({cpu_count} core container)")
    )
    record_result("e20_serving_tier.txt", text)

    payload = {
        "experiment": "e20",
        "cpu_count": cpu_count,
        "workload": {
            "distinct_queries": len(queries),
            "nodes": stats["nodes"],
            "relations": stats["relations"],
        },
        "cold_mix": {
            f"{mode}_w{workers}": {
                "total_ms": results[(mode, workers)] * 1000,
                "qps": len(queries) / results[(mode, workers)],
            }
            for mode, workers in CONFIGS
        },
        "routes_by_workers": route_mixes,
        "gate": {
            "process_w4_vs_thread_w4": speedup_w4,
            "threshold": PROCESS_SPEEDUP_GATE,
            "enforced": gate_enforced,
        },
        "loadgen": {
            key: report[key]
            for key in (
                "clients",
                "duration_s",
                "mix",
                "requests",
                "ok",
                "shed",
                "errors",
                "qps",
                "shed_rate",
                "availability",
                "p50_ms",
                "p95_ms",
                "p99_ms",
            )
        },
        "parity_sweep_mismatches": mismatches,
        "post_burst_service": {
            "shed": post_metrics["shed"],
            "routes": post_metrics["routes"],
            "serving": post_metrics["serving"],
        },
    }
    record_json("e20_serving_tier.json", payload)
    record_json("BENCH_e20.json", payload, directory=REPO_ROOT)

    # availability 1.0: ok + deliberate sheds cover every request.
    assert report["requests"] >= LOAD_CLIENTS
    assert report["availability"] == 1.0, report["errors_by_kind"]
    assert report["ok"] >= 1
    assert mismatches == 0
    if gate_enforced:
        assert speedup_w4 >= PROCESS_SPEEDUP_GATE, (
            f"process w=4 only {speedup_w4:.2f}x thread w=4 "
            f"on {cpu_count} cores"
        )
