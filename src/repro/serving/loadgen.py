"""The load generator: N concurrent clients against one QueryService.

``python -m repro.serving.loadgen`` boots a service over a seeded random
model, drives it with concurrent client threads for a wall-clock window,
and reports sustained QPS, p50/p95/p99 latency, shed rate, and
availability.  The client threads are *callers*, not the unit of
parallelism under test — in process mode the service fans their queries
out to worker processes; in thread mode the GIL serializes evaluation and
the numbers show it.

Query mixes:

``cold``
    every request is a freshly generated query — distinct plans, so the
    result cache can't answer and every request pays real evaluation
    (the workload where worker processes beat threads);
``warm``
    requests draw from a small fixed query set — steady state is all
    result-cache hits, the tier's best case;
``mixed``
    80% cold / 20% warm.

**Availability** counts a request as served when it returned a result or
was *deliberately* shed by admission control (a structured
``XQDY_OVERLOAD`` answer).  Timeouts, worker crashes, and any other error
count against it — so availability 1.0 under a saturating burst means the
tier degraded only by design.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from ..querycalc.service import QueryService
from ..querycalc.service.errors import QueryOverloadError, classify_error
from ..testing.models import random_calculus_query, random_model, random_phrase
from .frontend import percentile

__all__ = ["run_load", "main"]

MIXES = ("cold", "warm", "mixed", "search")

#: size of the fixed query set the warm mix draws from.
WARM_SET = 16

#: the search mix's read/write split: 5% of requests are writes (a
#: fresh document under ``docs/``), the rest full-text reads.
SEARCH_WRITE_RATE = 0.05


class _ClientStats:
    """One client thread's tallies (merged single-threaded afterwards)."""

    def __init__(self) -> None:
        self.requests = 0
        self.ok = 0
        self.shed = 0
        self.errors_by_kind: Dict[str, int] = {}
        self.latencies: List[float] = []


def _client_loop(
    step: Callable[[], object],
    stats: _ClientStats,
    stop_box: List[float],
    barrier: threading.Barrier,
) -> None:
    """Call ``step`` (one request) back to back until the window closes."""
    try:
        barrier.wait(timeout=30.0)
    except threading.BrokenBarrierError:
        return
    stop_at = stop_box[0]
    while time.perf_counter() < stop_at:
        stats.requests += 1
        started = time.perf_counter()
        try:
            step()
        except QueryOverloadError:
            stats.shed += 1
            # client-side retry backoff: a shed answer arrives in
            # microseconds, and a closed-loop client that immediately
            # re-requests turns saturation into a GIL-burning spin that
            # starves the very requests the tier admitted.
            time.sleep(0.005)
            continue
        except Exception as exc:
            kind = classify_error(exc).kind
            stats.errors_by_kind[kind] = stats.errors_by_kind.get(kind, 0) + 1
            continue
        stats.ok += 1
        stats.latencies.append(time.perf_counter() - started)


def _drive(
    make_step: Callable[[random.Random], Callable[[], object]],
    clients: int,
    duration: float,
    seed: int,
) -> Dict[str, object]:
    """Run *clients* threads, each calling its own ``make_step(rng)`` step
    for *duration* seconds; return the tallies every mix reports."""
    barrier = threading.Barrier(clients + 1)
    # the stop time is set right before the barrier opens, so thread
    # startup cost never dilutes the measurement window; clients read it
    # from the shared box after they clear the barrier.
    stop_box = [0.0]
    per_client = [_ClientStats() for _ in range(clients)]
    threads = []
    for index, stats in enumerate(per_client):
        step = make_step(random.Random(seed * 100003 + index))
        thread = threading.Thread(
            target=_client_loop, args=(step, stats, stop_box, barrier), daemon=True
        )
        threads.append(thread)
        thread.start()
    started = time.perf_counter()
    stop_box[0] = started + duration
    barrier.wait(timeout=30.0)
    for thread in threads:
        thread.join(timeout=duration + 60.0)
    elapsed = time.perf_counter() - started

    requests = sum(s.requests for s in per_client)
    ok = sum(s.ok for s in per_client)
    shed = sum(s.shed for s in per_client)
    errors_by_kind: Dict[str, int] = {}
    latencies: List[float] = []
    for s in per_client:
        for kind, count in s.errors_by_kind.items():
            errors_by_kind[kind] = errors_by_kind.get(kind, 0) + count
        latencies.extend(s.latencies)
    return {
        "clients": clients,
        "duration_s": round(elapsed, 3),
        "cpu_count": os.cpu_count(),
        "requests": requests,
        "ok": ok,
        "shed": shed,
        "errors": sum(errors_by_kind.values()),
        "errors_by_kind": errors_by_kind,
        "qps": round(ok / elapsed, 1) if elapsed > 0 else 0.0,
        "shed_rate": round(shed / requests, 4) if requests else 0.0,
        "availability": round((ok + shed) / requests, 4) if requests else 1.0,
        "p50_ms": round(percentile(latencies, 0.50) * 1000.0, 3),
        "p95_ms": round(percentile(latencies, 0.95) * 1000.0, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000.0, 3),
    }


def run_load(
    service: QueryService,
    clients: int = 100,
    duration: float = 5.0,
    mix: str = "cold",
    seed: int = 0,
    timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Drive *service* with concurrent clients; return the report dict."""
    if mix not in MIXES:
        raise ValueError(f"mix must be one of {MIXES}, not {mix!r}")
    model = service.model
    warm_rng = random.Random(seed)
    warm_queries = [random_calculus_query(warm_rng, model) for _ in range(WARM_SET)]

    def make_step(rng: random.Random):
        def step():
            if mix == "warm" or (mix == "mixed" and rng.random() < 0.2):
                query = rng.choice(warm_queries)
            else:
                query = random_calculus_query(rng, model)
            service.run(query, timeout=timeout)

        return step

    report = _drive(make_step, clients, duration, seed)
    report.update(
        mix=mix,
        mode=service.mode,
        workers=service.workers,
        max_pending=service.max_pending,
    )
    return report


def _search_request(rng: random.Random, uris: List[str], collections: List[str]):
    """One random full-text read against the document tier."""
    from ..collections import SearchRequest

    roll = rng.random()
    if roll < 0.15 and uris:
        return SearchRequest(kind="doc", uri=rng.choice(uris))
    if roll < 0.3:
        return SearchRequest(kind="collection", collection=rng.choice(collections))
    kind = "kwic" if roll < 0.45 else "search"
    return SearchRequest(
        kind=kind,
        collection=rng.choice(collections),
        phrase=random_phrase(rng),
        limit=rng.choice((0, 0, 5)),
    )


def run_search_load(
    service,
    clients: int = 16,
    duration: float = 5.0,
    seed: int = 0,
) -> Dict[str, object]:
    """Drive a :class:`~repro.collections.SearchService` with a 95/5
    read/write full-text mix; return the report dict.

    80% of reads draw from a fixed warm set, so the steady state shows
    whether the generation-keyed result cache keeps unrelated
    collections warm across the 5% write stream.
    """
    warm_rng = random.Random(seed)
    uris = service.store.uris()
    collections = list(service.store.known_collections())
    warm_requests = [
        _search_request(warm_rng, uris, collections) for _ in range(WARM_SET)
    ]

    def make_step(rng: random.Random):
        def step():
            if rng.random() < SEARCH_WRITE_RATE:
                words = " ".join(random_phrase(rng, 1) for _ in range(6))
                service.put_text(
                    f"docs/hot{rng.randrange(0, 8)}.xml", f"<doc>{words}</doc>"
                )
            elif rng.random() < 0.8:
                service.run(rng.choice(warm_requests))
            else:
                service.run(_search_request(rng, uris, collections))

        return step

    report = _drive(make_step, clients, duration, seed)
    metrics = service.stats()["metrics"]
    reads = metrics["cache_hits"] + metrics["cache_misses"]
    report.update(
        mix="search",
        mode=service.mode,
        shards=service.shards,
        writes=metrics["writes"],
        cache_hit_rate=round(metrics["cache_hits"] / reads, 4) if reads else 0.0,
    )
    return report


def search_parity_sweep(service, seed: int, count: int = 24) -> int:
    """Post-burst gate for the search tier: whatever state the burst left
    the workers and caches in, every served answer must be byte-identical
    to a brute-force (index-off) evaluation over the live authoritative
    store."""
    rng = random.Random(seed + 7)
    uris = service.store.uris()
    collections = list(service.store.known_collections())
    mismatches = 0
    for _ in range(count):
        request = _search_request(rng, uris, collections)
        try:
            served = service.run(request).text
            served_err = None
        except Exception as exc:
            served, served_err = None, classify_error(exc).kind
        try:
            fresh = service.evaluate_fresh(request, use_index=False)
            fresh_err = None
        except Exception as exc:
            fresh, fresh_err = None, classify_error(exc).kind
        if served != fresh or served_err != fresh_err:
            mismatches += 1
    return mismatches


def parity_sweep(model, service: QueryService, seed: int, count: int = 24) -> int:
    """Compare *service* against a fresh thread-mode twin; mismatch count.

    Run post-burst as the loadgen's correctness gate, in either mode:
    whatever state the burst drove the caches and workers into, the
    served answers must still be byte-identical to a cold service's.
    """
    reference = QueryService(model)
    rng = random.Random(seed + 7)
    mismatches = 0
    for _ in range(count):
        query = random_calculus_query(rng, model)
        try:
            expect = [node.id for node in reference.run(query)]
            expect_err = None
        except Exception as exc:
            expect, expect_err = None, classify_error(exc).kind
        try:
            got = [node.id for node in service.run(query)]
            got_err = None
        except QueryOverloadError:
            continue  # a saturated tier refusing is not a parity failure
        except Exception as exc:
            got, got_err = None, classify_error(exc).kind
        if expect != got or expect_err != got_err:
            mismatches += 1
    return mismatches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description="Load-test the AWB query serving tier.",
    )
    parser.add_argument("--mode", choices=("thread", "process"), default="process")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count (0 = one per CPU core)")
    parser.add_argument("--clients", type=int, default=100)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="measurement window in seconds")
    parser.add_argument("--mix", choices=MIXES, default="cold")
    parser.add_argument("--model-size", type=int, default=60,
                        help="nodes in the generated model")
    parser.add_argument("--docs", type=int, default=60,
                        help="documents in the generated store (search mix)")
    parser.add_argument("--seed", type=int, default=20040522)
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-query wall-clock budget in seconds")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission-control bound (default: workers*4)")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless availability is 100%% and "
                             "a post-burst parity sweep passes")
    args = parser.parse_args(argv)

    model = None
    if args.mix == "search":
        from ..collections import SearchService
        from ..testing.models import random_document_store

        store = random_document_store(args.seed, docs=args.docs)
        # thread mode runs one in-process worker over the live store
        shards = args.workers if args.mode == "process" else 1
        service = SearchService(store, shards=shards, mode=args.mode)
    else:
        model = random_model(args.seed, size=args.model_size)
        service = QueryService(
            model,
            mode=args.mode,
            workers=args.workers,
            max_pending=args.max_pending,
        )
    try:
        if model is None:
            report = run_search_load(
                service, clients=args.clients, duration=args.duration, seed=args.seed
            )
            mismatches = search_parity_sweep(service, args.seed)
        else:
            report = run_load(
                service,
                clients=args.clients,
                duration=args.duration,
                mix=args.mix,
                seed=args.seed,
                timeout=args.timeout,
            )
            mismatches = parity_sweep(model, service, args.seed)
        report["parity_mismatches"] = mismatches
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_report(report)
        return _check(report) if args.check else 0
    finally:
        service.close()


def _print_report(report: Dict[str, object]) -> None:
    size = (
        f"{report['shards']} shards"
        if "shards" in report
        else f"{report['workers']} workers"
    )
    print(
        f"{report['mode']} mode, {size}, {report['clients']} clients, "
        f"{report['duration_s']}s, mix={report['mix']}"
    )
    print(
        f"  {report['requests']} requests: {report['ok']} ok, "
        f"{report['shed']} shed ({report['shed_rate']:.1%}), "
        f"{report['errors']} errors -> availability "
        f"{report['availability']:.1%}"
    )
    if "writes" in report:
        print(
            f"  {report['writes']} writes, cache hit rate "
            f"{report['cache_hit_rate']:.1%}"
        )
    print(
        f"  {report['qps']} qps sustained; latency p50 "
        f"{report['p50_ms']}ms / p95 {report['p95_ms']}ms / "
        f"p99 {report['p99_ms']}ms"
    )
    if "parity_mismatches" in report:
        print(f"  parity sweep: {report['parity_mismatches']} mismatches")


def _check(report: Dict[str, object]) -> int:
    """The ``--check`` gate: availability 1.0 and a clean parity sweep."""
    if report["availability"] < 1.0:
        print(
            f"CHECK FAILED: availability {report['availability']:.2%} < 100%",
            file=sys.stderr,
        )
        return 1
    if report.get("parity_mismatches"):
        print(
            f"CHECK FAILED: {report['parity_mismatches']} parity mismatches",
            file=sys.stderr,
        )
        return 1
    print("check passed: availability 100%, parity clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
