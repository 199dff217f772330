"""Command-line query-calculus runner.

Usage::

    python -m repro.querycalc --model model.xml --query query.xml
    python -m repro.querycalc --model model.xml --query query.xml \
        --backend xquery --show-compiled
    python -m repro.querycalc --model model.xml --query query.xml \
        --backend service --repeat 5 --time

The ``xquery`` backend is the paper's "preposterously inefficient"
configuration — useful for feeling the difference first-hand.  The
``service`` backend puts the serving layer (plan/result caches over the
algebra engine) in front of it; with ``--repeat`` the cold
first run and warm repeats are printed separately, demonstrating by hand
what E15 measures.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..awb import import_model_text, load_metamodel
from ..xquery.errors import XQueryError
from .native import run_query
from .parser import parse_query_xml
from .service import FaultConfig, FaultInjector, QueryService, classify_error
from .via_xquery import XQueryCalculusBackend


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.querycalc",
        description="Run an AWB query-calculus query against a model export.",
    )
    parser.add_argument("--model", required=True, help="AWB model XML export")
    parser.add_argument(
        "--metamodel",
        default="it-architecture",
        help="builtin metamodel name (default: it-architecture)",
    )
    parser.add_argument("--query", required=True, help="calculus query XML file")
    parser.add_argument(
        "--backend",
        choices=("native", "xquery", "service"),
        default="native",
        help="interpreter to use (default: native); 'service' is the "
        "cached serving layer over the xquery path",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the query N times (with --time, prints per-run latency; "
        "under --backend service the first run is cold, the rest warm)",
    )
    parser.add_argument(
        "--show-compiled",
        action="store_true",
        help="print the generated XQuery (xquery/service backends only)",
    )
    parser.add_argument("--time", action="store_true", help="print timing")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock budget; a run that exceeds it fails "
        "with XQDY_TIMEOUT (service backend only)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="chaos-test the serving path, e.g. 'eval=0.1,stall=0.05,"
        "stall-ms=40,seed=7' (service backend only)",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="service execution mode: 'thread' (in-process caches+dedup) "
        "or 'process' (the shared-nothing worker-process tier; service "
        "backend only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="service worker count; 0 means one per CPU core (service "
        "backend only)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="after the initial --query, keep serving: read query XML "
        "file paths from stdin (one per line) until EOF (service "
        "backend only)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.backend != "service" and args.timeout is not None:
        parser.error("--timeout requires --backend service")
    if args.backend != "service" and args.inject_faults is not None:
        parser.error("--inject-faults requires --backend service")
    if args.backend != "service" and (
        args.serve or args.mode != "thread" or args.workers != 4
    ):
        parser.error("--serve/--mode/--workers require --backend service")

    with open(args.model, "r", encoding="utf-8") as handle:
        model = import_model_text(handle.read(), load_metamodel(args.metamodel))
    with open(args.query, "r", encoding="utf-8") as handle:
        query = parse_query_xml(handle.read())

    service = None
    backend = None
    if args.backend == "service":
        injector = None
        if args.inject_faults is not None:
            try:
                injector = FaultInjector(FaultConfig.parse(args.inject_faults))
            except ValueError as exc:
                parser.error(str(exc))
        service = QueryService(
            model,
            default_timeout=args.timeout,
            fault_injector=injector,
            mode=args.mode,
            workers=args.workers,
        )
    elif args.backend == "xquery":
        backend = XQueryCalculusBackend(model)
    if args.show_compiled and args.backend != "native":
        compiler = backend or XQueryCalculusBackend(model)
        print(compiler.compile_to_xquery(query), file=sys.stderr)

    nodes = []
    timings = []
    failures = 0
    last_error = None
    for _ in range(args.repeat):
        started = time.perf_counter()
        if args.backend == "native":
            nodes = run_query(query, model)
        elif args.backend == "xquery":
            nodes = backend.run(query)
        else:
            try:
                nodes = service.run(query)
            except Exception as exc:  # structured failure, not a crash
                if not isinstance(exc, XQueryError) and not hasattr(
                    exc, "query_error_kind"
                ):
                    raise
                error = classify_error(exc)
                failures += 1
                last_error = error
                print(f"query failed — {error}", file=sys.stderr)
        timings.append(time.perf_counter() - started)

    for node in nodes:
        print(f"{node.id}\t{node.type_name}\t{node.label}")
    if args.time:
        for index, elapsed in enumerate(timings, start=1):
            temperature = ""
            if args.backend == "service":
                temperature = " (cold)" if index == 1 else " (warm)"
            print(
                f"run {index}: {elapsed * 1000:.2f}ms{temperature}",
                file=sys.stderr,
            )
        print(
            f"{len(nodes)} result(s), best of {args.repeat}: "
            f"{min(timings) * 1000:.2f}ms ({args.backend} backend)",
            file=sys.stderr,
        )
        if service is not None:
            metrics = service.metrics()
            print(
                f"service: {metrics['queries']} queries, "
                f"{metrics['hits']} result-cache hit(s), "
                f"{metrics['misses']} miss(es), "
                f"{metrics['errors']} error(s), "
                f"{metrics['timeouts']} timeout(s), "
                f"{metrics['fallbacks']} fallback(s), "
                f"p50 {metrics['p50_ms']:.2f}ms p95 {metrics['p95_ms']:.2f}ms",
                file=sys.stderr,
            )
    if args.serve and service is not None:
        print(
            "serving: one query XML path per line (EOF to stop)",
            file=sys.stderr,
        )
        for line in sys.stdin:
            path = line.strip()
            if not path:
                continue
            started = time.perf_counter()
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    served = service.run(parse_query_xml(handle.read()))
            except Exception as exc:  # keep serving: failures are per-request
                print(f"{path}: failed — {classify_error(exc)}", file=sys.stderr)
                continue
            elapsed = (time.perf_counter() - started) * 1000.0
            source = " (cache)" if served.served_from_cache else ""
            print(
                f"# {path}: {len(served)} result(s) in {elapsed:.2f}ms{source}",
                file=sys.stderr,
            )
            for node in served:
                print(f"{node.id}\t{node.type_name}\t{node.label}")

    if service is not None:
        service.close()
    if failures:
        print(
            f"{failures}/{args.repeat} run(s) failed; last: {last_error}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
