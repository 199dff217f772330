"""E15 — the query service: closing E6's "preposterously inefficient" gap.

E6 measures the paper's complaint in its rawest form: every query
re-evaluates generated XQuery over the model export, 341–2646× behind the
native interpreter and growing with model size.  E15 measures the same
queries through the serving layer a 2004 deployment could have built
around the very same engine (compare Apache VXQuery's compiled-plan reuse
and data-scan sharing): compiled-plan cache, incremental export, result
cache keyed by export generation, and batch execution that evaluates each
distinct plan once per batch.

Three claims, each asserted:

* **warm repeat queries land within 10× of native** at the largest E6
  size (n=101) — down from 2646× cold in the seed's E6 table (a result
  cache hit is a dict probe + id re-materialization);
* **cold queries are unchanged engine semantics** — a miss runs exactly
  the code E6 measures (same results as native, quirks preserved);
* **the batch API beats the naive per-query loop ≥ 1.5× on the q=64
  workload** (64 queries, 16 distinct — UI refresh traffic re-issuing
  the same panels), because each distinct plan is evaluated once over
  one shared export snapshot.  The naive loop runs on the same algebra
  engine the service uses, whose evaluations are cheap next to the
  service's per-request bookkeeping, so the 48 skipped evaluations buy
  well under the 4× dedup ratio.  On this single-core box the win is
  dedup + shared caches; the thread pool adds concurrency, not
  parallelism (GIL) — the workers column reports that honestly.

Methodology matches E13: interleave competitors in one process, best-of-N,
outputs asserted identical before anything is timed.
"""

import os
import random
import time

from conftest import format_table, record_json, record_result
from repro.querycalc import (
    QueryService,
    XQueryCalculusBackend,
    parse_query_xml,
    run_query,
)
from repro.workloads import make_it_model
from repro.xquery import EngineConfig, XQueryEngine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUERY = parse_query_xml(
    """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
    """
)

SCALES = [8, 24, 48]  # n = 17, 51, 101 nodes — the E6 matrix
BATCH_SCALE = 24
WARM_ROUNDS = 5
COLD_ROUNDS = 2
BATCH_ROUNDS = 5


def _batch_workload():
    """64 queries, 16 distinct (each re-issued 4×): one UI refresh."""
    sources = []
    for type_name in ("User", "Superuser", "Program", "Server"):
        sources.append(f'<query><start type="{type_name}"/><collect/></query>')
        sources.append(
            f'<query><start type="{type_name}"/><collect order="descending"/></query>'
        )
        sources.append(
            f'<query><start type="{type_name}"/>'
            '<follow relation="likes"/><collect/></query>'
        )
        sources.append(
            f'<query><start type="{type_name}"/>'
            '<filter-property name="birthYear" op="ge" value="1970"/>'
            "<collect/></query>"
        )
    unique = [parse_query_xml(source) for source in sources]
    queries = unique * 4
    random.Random(7).shuffle(queries)
    return queries


def test_e15_smoke_warm_speedup():
    """CI smoke gate: at the smallest size, a warm repeat must beat the
    cold first run by at least 2× (in practice it is hundreds of ×)."""
    model = make_it_model(scale=SCALES[0])
    service = QueryService(model)
    service._snapshot()  # build the export outside the timed region, as E6 does

    started = time.perf_counter()
    cold_nodes = service.run(QUERY)
    cold = time.perf_counter() - started

    started = time.perf_counter()
    warm_nodes = service.run(QUERY)
    warm = time.perf_counter() - started

    assert [n.id for n in cold_nodes] == [n.id for n in warm_nodes]
    assert [n.id for n in cold_nodes] == [n.id for n in run_query(QUERY, model)]
    assert service.metrics()["hits"] == 1
    assert cold / warm >= 2.0, f"warm speedup collapsed: {cold / warm:.1f}x"


def test_e15_query_service_matrix():
    matrix_rows = []
    json_rows = []

    for scale in SCALES:
        model = make_it_model(scale=scale)
        stats = model.stats()
        native_ids = [n.id for n in run_query(QUERY, model)]

        # native reference: the repo's converged implementation.
        started = time.perf_counter()
        for _ in range(50):
            run_query(QUERY, model)
        native_seconds = (time.perf_counter() - started) / 50

        # cold: best of fresh services (plan compile + closure eval; the
        # export is pre-built, matching E6's methodology).
        cold_seconds = float("inf")
        service = None
        for _ in range(COLD_ROUNDS):
            service = QueryService(model)
            service._snapshot()
            started = time.perf_counter()
            cold_result = service.run(QUERY)
            cold_seconds = min(cold_seconds, time.perf_counter() - started)
            assert [n.id for n in cold_result] == native_ids

        # warm: repeat the same query against the unchanged model.
        warm_seconds = float("inf")
        for _ in range(WARM_ROUNDS):
            started = time.perf_counter()
            warm_result = service.run(QUERY)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)
            assert [n.id for n in warm_result] == native_ids

        cold_ratio = cold_seconds / native_seconds
        warm_ratio = warm_seconds / native_seconds
        matrix_rows.append(
            (
                stats["nodes"],
                stats["relations"],
                f"{native_seconds * 1000:.2f}ms",
                f"{cold_seconds * 1000:.1f}ms",
                f"{warm_seconds * 1000:.3f}ms",
                f"{cold_ratio:.0f}x",
                f"{warm_ratio:.2f}x",
            )
        )
        json_rows.append(
            {
                "nodes": stats["nodes"],
                "relations": stats["relations"],
                "native_ms": native_seconds * 1000,
                "cold_ms": cold_seconds * 1000,
                "warm_ms": warm_seconds * 1000,
                "cold_vs_native": cold_ratio,
                "warm_vs_native": warm_ratio,
            }
        )

    # THE headline assertion: warm repeat queries on the XQuery calculus
    # path sit within 10x of native at n=101 (E6 measured 2646x cold).
    assert json_rows[-1]["nodes"] == 101
    assert json_rows[-1]["warm_vs_native"] <= 10.0

    # -- the q=64 batch workload ---------------------------------------------
    model = make_it_model(scale=BATCH_SCALE)
    queries = _batch_workload()
    expected = [[n.id for n in run_query(query, model)] for query in queries]

    # pre-PR baseline: the naive per-query loop over the calculus-to-XQuery
    # backend (same algebra engine the service uses, export pre-built).
    naive_seconds = float("inf")
    batch1_seconds = float("inf")
    batch4_seconds = float("inf")
    for _ in range(BATCH_ROUNDS):
        backend = XQueryCalculusBackend(
            model, engine=XQueryEngine(EngineConfig(backend="algebra"))
        )
        backend.export
        started = time.perf_counter()
        naive_results = [[n.id for n in backend.run(query)] for query in queries]
        naive_seconds = min(naive_seconds, time.perf_counter() - started)
        assert naive_results == expected

        for workers, holder in ((1, "batch1"), (4, "batch4")):
            service = QueryService(model)
            service._snapshot()
            started = time.perf_counter()
            batch_results = [
                [n.id for n in nodes]
                for nodes in service.run_batch(queries, workers=workers)
            ]
            elapsed = time.perf_counter() - started
            assert batch_results == expected
            if holder == "batch1":
                batch1_seconds = min(batch1_seconds, elapsed)
            else:
                batch4_seconds = min(batch4_seconds, elapsed)
        batch_metrics = service.metrics()

    batch_rows = [
        ("naive loop", f"{naive_seconds * 1000:.0f}ms",
         f"{len(queries) / naive_seconds:.1f}", "1.00x"),
        ("run_batch w=1", f"{batch1_seconds * 1000:.0f}ms",
         f"{len(queries) / batch1_seconds:.1f}",
         f"{naive_seconds / batch1_seconds:.2f}x"),
        ("run_batch w=4", f"{batch4_seconds * 1000:.0f}ms",
         f"{len(queries) / batch4_seconds:.1f}",
         f"{naive_seconds / batch4_seconds:.2f}x"),
    ]

    # the q=64 gate: batched execution with 4 workers is >= 1.5x the naive
    # single-thread loop (each of the 16 distinct plans runs once).
    batch_speedup = naive_seconds / batch4_seconds
    assert batch_speedup >= 1.5, f"batch speedup collapsed: {batch_speedup:.2f}x"

    text = (
        format_table(
            ["nodes", "relations", "native", "cold", "warm", "cold/nat", "warm/nat"],
            matrix_rows,
        )
        + "\n\nq=64 batch workload (16 distinct queries x 4, n="
        + str(make_it_model(scale=BATCH_SCALE).stats()["nodes"])
        + ")\n"
        + format_table(["path", "total", "queries/s", "speedup"], batch_rows)
    )
    record_result("e15_query_service.txt", text)

    payload = {
        "experiment": "e15",
        "matrix": json_rows,
        "batch": {
            "workload": "q=64 (16 distinct x 4)",
            "scale": BATCH_SCALE,
            "naive_ms": naive_seconds * 1000,
            "batch_workers1_ms": batch1_seconds * 1000,
            "batch_workers4_ms": batch4_seconds * 1000,
            "speedup_vs_naive": batch_speedup,
            "service_metrics": batch_metrics,
        },
        "headline": {
            "warm_vs_native_at_n101": json_rows[-1]["warm_vs_native"],
            "cold_vs_native_at_n101": json_rows[-1]["cold_vs_native"],
            "e06_seed_slowdown_at_n101": 2646.0,
            "batch_speedup_q64": batch_speedup,
        },
    }
    record_json("e15_query_service.json", payload)
    record_json("BENCH_e15.json", payload, directory=REPO_ROOT)
