"""E18 — the algebra backend closes the cold-query gap.

E6 established the paper's "lopsided" baseline: the first (cold) query
through the XQuery surface ran ~2646x slower than the native traversal at
n=101, and the treewalk reference evaluator is quadratic on the join-shaped
workload.  E15's service layer fixed the *warm* path with plan/result
caches, but a cold query — new plan, new model generation — still paid the
nested-loop price.

E18 measures what the cost-based algebra backend (PR 6) does to that cold
path.  The matrix runs the same three-hop workload as E6/E15 at the same
scales, comparing per-backend cold times against the native reference:

* ``treewalk``  — the reference evaluator, nested loops (the E6 story);
* ``algebra``   — set-at-a-time hash-join plans over the statistics
  catalog collected at export time (the service default cold path).

THE headline (and the CI gate): algebra cold is within 10x of native at
n=101 — against a treewalk cold measured in the *thousands* of x.

Methodology: the export snapshot is pre-built outside the timed region
(that is E6's convention), and each cold run gets a fresh service.  The
gated ratio interleaves the two sides, as ``bench compare`` does: seven
pairs of one native block (the mean of seven runs) and one algebra cold
run, alternating which goes first, so a slow stretch of this shared box
lands on both sides of a pair.  ``algebra_cold_vs_native`` is the median
of the per-pair ratios; the native and cold columns are the medians of
their sides.
"""

import gc
import os
import statistics
import time

from conftest import format_table, record_json, record_result
from repro.querycalc import QueryService, parse_query_xml, run_query
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
NATIVE_BLOCK = 7  # native runs per pair; their mean is the pair's native time
ALGEBRA_COLD_PAIRS = 7  # the gated number: median over alternating pairs
WARM_ROUNDS = 5


def _cold_service(model, backend: str) -> QueryService:
    """A fresh service on *backend* with the export pre-built (E6's rule:
    snapshot construction is export cost, not query cost)."""
    service = QueryService(
        model, engine=XQueryEngine(EngineConfig(backend=backend))
    )
    service._snapshot()
    return service


def _cold_seconds(model, backend: str, expected_ids) -> float:
    service = _cold_service(model, backend)
    # quiesce the collector so a GC pause triggered by the *previous*
    # backend's garbage is not billed to this one's cold run
    gc.collect()
    started = time.perf_counter()
    result = service.run(QUERY)
    elapsed = time.perf_counter() - started
    assert [n.id for n in result] == expected_ids
    return elapsed


def _native_seconds(model) -> float:
    started = time.perf_counter()
    for _ in range(NATIVE_BLOCK):
        run_query(QUERY, model)
    return (time.perf_counter() - started) / NATIVE_BLOCK


def _paired_algebra_cold(model, expected_ids):
    """(median native, median algebra cold, per-pair cold/native ratios)
    over ALGEBRA_COLD_PAIRS alternating pairs."""
    natives, colds, ratios = [], [], []
    for pair in range(ALGEBRA_COLD_PAIRS):
        if pair % 2:
            cold = _cold_seconds(model, "algebra", expected_ids)
            native = _native_seconds(model)
        else:
            native = _native_seconds(model)
            cold = _cold_seconds(model, "algebra", expected_ids)
        natives.append(native)
        colds.append(cold)
        ratios.append(cold / native)
    return statistics.median(natives), statistics.median(colds), ratios


def test_e18_smoke_algebra_is_default_and_agrees():
    """CI smoke gate: the service's default engine is the algebra backend,
    it agrees with native, and its cold run beats a treewalk cold run."""
    model = make_it_model(scale=SCALES[0])
    service = QueryService(model)
    assert service.engine.config.backend == "algebra"
    service._snapshot()

    started = time.perf_counter()
    result = service.run(QUERY)
    algebra_cold = time.perf_counter() - started
    assert [n.id for n in result] == [n.id for n in run_query(QUERY, model)]

    explanation = service.explain(QUERY)
    assert "HashJoin" in explanation["text"]

    treewalk = _cold_service(model, "treewalk")
    started = time.perf_counter()
    treewalk.run(QUERY)
    treewalk_cold = time.perf_counter() - started
    assert algebra_cold < treewalk_cold


def test_e18_algebra_plans_matrix():
    matrix_rows = []
    json_rows = []

    for scale in SCALES:
        model = make_it_model(scale=scale)
        stats = model.stats()
        native_ids = [n.id for n in run_query(QUERY, model)]

        # native reference: the repo's converged implementation.
        native_seconds, algebra_seconds, ratios = _paired_algebra_cold(
            model, native_ids
        )
        # quadratic: one round is seconds at n=101
        treewalk_seconds = _cold_seconds(model, "treewalk", native_ids)

        # warm: the same algebra-backed service, result cache hit.
        service = _cold_service(model, "algebra")
        warm_seconds = float("inf")
        for _ in range(WARM_ROUNDS + 1):  # first run populates the caches
            started = time.perf_counter()
            warm_result = service.run(QUERY)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)
            assert [n.id for n in warm_result] == native_ids

        row = {
            "nodes": stats["nodes"],
            "relations": stats["relations"],
            "native_ms": native_seconds * 1000,
            "treewalk_cold_ms": treewalk_seconds * 1000,
            "algebra_cold_ms": algebra_seconds * 1000,
            "algebra_warm_ms": warm_seconds * 1000,
            "treewalk_cold_vs_native": treewalk_seconds / native_seconds,
            "algebra_cold_vs_native": statistics.median(ratios),
            "algebra_cold_vs_native_pairs": [round(ratio, 2) for ratio in ratios],
        }
        json_rows.append(row)
        matrix_rows.append(
            (
                stats["nodes"],
                f"{native_seconds * 1000:.2f}ms",
                f"{treewalk_seconds * 1000:.0f}ms",
                f"{algebra_seconds * 1000:.1f}ms",
                f"{row['treewalk_cold_vs_native']:.0f}x",
                f"{row['algebra_cold_vs_native']:.1f}x",
            )
        )

    headline = json_rows[-1]
    # the optimized plan the gate times, recorded before the gate asserts
    # so a red run still leaves its numbers.
    model = make_it_model(scale=SCALES[-1])
    service = QueryService(model)
    explanation = service.explain(QUERY)

    text = (
        format_table(
            [
                "nodes",
                "native",
                "tw-cold",
                "alg-cold",
                "tw/nat",
                "alg/nat",
            ],
            matrix_rows,
        )
        + "\n\noptimized plan at n=101:\n"
        + str(explanation["text"])
    )
    record_result("e18_algebra_plans.txt", text)

    payload = {
        "experiment": "e18",
        "workload": "User -likes-> * -uses-> Program, sort by label",
        "matrix": json_rows,
        "plan_text": explanation["text"],
        "headline": {
            "cold_vs_native_at_n101": headline["algebra_cold_vs_native"],
            "treewalk_cold_vs_native_at_n101": headline[
                "treewalk_cold_vs_native"
            ],
            "e06_seed_slowdown_at_n101": 2646.0,
        },
    }
    record_json("e18_algebra_plans.json", payload)
    record_json("BENCH_e18.json", payload, directory=REPO_ROOT)

    # THE headline assertion (the CI gate): a cold algebra query at n=101
    # is within 10x of the native traversal.  E6's seed measured the same
    # workload at 2646x; the treewalk column above keeps that contrast
    # honest run-over-run.
    assert headline["nodes"] == 101
    assert headline["algebra_cold_vs_native"] <= 10.0, (
        f"algebra cold regressed: {headline['algebra_cold_vs_native']:.1f}x "
        "native at n=101 (gate: 10x)"
    )
    # the lopsidedness contrast: set-at-a-time plans beat the quadratic
    # reference by orders of magnitude on the same cold query.
    assert headline["treewalk_cold_ms"] > 50 * headline["algebra_cold_ms"]
