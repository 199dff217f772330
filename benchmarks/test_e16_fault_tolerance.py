"""E16 — fault tolerance: availability and tail latency under injected faults.

E15 showed the serving layer closes the "preposterously inefficient" gap
when everything goes right.  E16 measures what the robustness layer buys
when things go *wrong*: a seeded :class:`FaultInjector` fails 10% of
evaluations, and we measure **availability** (fraction of queries that
still return a correct answer) and **p50/p95 latency** across three
configurations:

* **baseline** — no faults, for reference latency;
* **degraded** — internal faults restricted to the algebra backend (the
  service's primary) at a 10% rate.  Graceful degradation retries each
  internal failure once on the treewalk reference backend, so
  availability stays ≥ 99% (in practice 100%: every fault is absorbed)
  at the cost of slower retried requests in the tail;
* **isolated** — spec (dynamic) faults at a 10% rate.  These are the
  query's own fault, so no retry can save them — availability sits near
  90% — but every failure is a structured per-query error and every
  sibling completes: availability ≈ 1 − fault rate, never 0.

The model is mutated between rounds so the result cache cannot absorb
the fault rate: every round re-evaluates every plan.

Headline assertions (the CI smoke gate re-asserts the first):

* degraded availability ≥ 99% at a 10% injected fault rate;
* isolated availability ≥ 1 − 2×rate (failures stay proportional — one
  bad query never takes out a batch);
* all returned answers match the native interpreter exactly.
"""

import os
import time

from conftest import format_table, record_json, record_result
from repro.querycalc import (
    FaultConfig,
    FaultInjector,
    QueryService,
    parse_query_xml,
    run_query,
)
from repro.workloads import make_it_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALE = 24
ROUNDS = 8
FAULT_RATE = 0.10
TIMEOUT = 2.0


def _distinct_queries():
    """16 distinct calculus queries — one UI refresh worth of panels."""
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
    return [parse_query_xml(source) for source in sources]


def _run_scenario(config, rounds=ROUNDS):
    """Serve rounds × 16 queries under *config*, mutating between rounds.

    Returns (availability, total, metrics, elapsed_seconds).  Every query
    that succeeds is checked against the native interpreter's answer, so
    availability only counts *correct* answers.
    """
    model = make_it_model(scale=SCALE)
    queries = _distinct_queries()
    expected = [[n.id for n in run_query(query, model)] for query in queries]
    injector = FaultInjector(config) if config is not None else None
    service = QueryService(model, fault_injector=injector)
    service._snapshot()  # build the export outside the measured region

    total = ok = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        if round_index:
            # a point mutation bumps the export generation: the result
            # cache cannot shield this round from the injector.  It
            # touches a property none of these queries select on, so the
            # native expectation stays valid.
            model.nodes_of_type("User")[0].set("firstName", f"mut{round_index}")
        for query, expected_ids in zip(queries, expected):
            total += 1
            try:
                item = service.run(query, timeout=TIMEOUT)
            except Exception:
                continue
            assert [n.id for n in item] == expected_ids
            ok += 1
    elapsed = time.perf_counter() - started
    return ok / total, total, service.metrics(), elapsed


def test_e16_smoke_availability():
    """CI smoke gate: ≥ 99% availability at a 10% injected fault rate,
    thanks to degradation onto the treewalk backend."""
    config = FaultConfig(
        eval_failure_rate=FAULT_RATE, eval_backends={"algebra"}, seed=13
    )
    availability, _, metrics, _ = _run_scenario(config, rounds=3)
    assert availability >= 0.99, f"availability collapsed: {availability:.3f}"
    assert metrics["fallbacks"] >= 1  # degradation, not luck, absorbed the faults


def test_e16_fault_tolerance_matrix():
    scenarios = [
        ("baseline", None),
        (
            "degraded",
            FaultConfig(
                eval_failure_rate=FAULT_RATE, eval_backends={"algebra"}, seed=13
            ),
        ),
        (
            "isolated",
            FaultConfig(
                eval_failure_rate=FAULT_RATE, eval_failure_kind="dynamic", seed=13
            ),
        ),
    ]

    rows = []
    json_rows = []
    results = {}
    for name, config in scenarios:
        availability, total, metrics, elapsed = _run_scenario(config)
        results[name] = (availability, metrics)
        rows.append(
            (
                name,
                total,
                f"{availability * 100:.1f}%",
                metrics["errors"],
                metrics["fallbacks"],
                f"{metrics['p50_ms']:.2f}ms",
                f"{metrics['p95_ms']:.2f}ms",
            )
        )
        json_rows.append(
            {
                "scenario": name,
                "queries": total,
                "availability": availability,
                "errors": metrics["errors"],
                "timeouts": metrics["timeouts"],
                "fallbacks": metrics["fallbacks"],
                "errors_by_kind": metrics["errors_by_kind"],
                "p50_ms": metrics["p50_ms"],
                "p95_ms": metrics["p95_ms"],
                "elapsed_s": elapsed,
            }
        )

    baseline_availability, _ = results["baseline"]
    degraded_availability, degraded_metrics = results["degraded"]
    isolated_availability, isolated_metrics = results["isolated"]

    # headline gates
    assert baseline_availability == 1.0
    assert degraded_availability >= 0.99, (
        f"degradation failed to hold availability: {degraded_availability:.3f}"
    )
    assert degraded_metrics["fallbacks"] >= 1
    # spec faults cannot be retried away, but they stay proportional:
    # availability ≈ 1 - rate, and never collapses below 1 - 2x rate.
    assert isolated_availability >= 1.0 - 2 * FAULT_RATE
    assert isolated_availability < 1.0  # the injector really fired
    assert isolated_metrics["errors_by_kind"].get("dynamic", 0) >= 1

    text = (
        f"E16 — availability under injected faults "
        f"(rate={FAULT_RATE:.0%}, rounds={ROUNDS}, scale n="
        f"{make_it_model(scale=SCALE).stats()['nodes']})\n\n"
        + format_table(
            ["scenario", "queries", "avail", "errors", "fallbacks", "p50", "p95"],
            rows,
        )
    )
    record_result("e16_fault_tolerance.txt", text)

    payload = {
        "experiment": "e16",
        "fault_rate": FAULT_RATE,
        "rounds": ROUNDS,
        "scale": SCALE,
        "scenarios": json_rows,
        "headline": {
            "degraded_availability": degraded_availability,
            "isolated_availability": isolated_availability,
            "degraded_p95_ms": degraded_metrics["p95_ms"],
            "baseline_p95_ms": results["baseline"][1]["p95_ms"],
        },
    }
    record_json("e16_fault_tolerance.json", payload)
    record_json("BENCH_e16.json", payload, directory=REPO_ROOT)
