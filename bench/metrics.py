"""Every metric the benchmark reports: name, unit, direction and bound.

``BENCHMARK.json`` at the checkout root lists the :data:`LISTED` end-to-end
metrics and every per-layer metric; ``bench/tests`` checks that the two
agree.
"""

from __future__ import annotations

from .stats import Metric

END_TO_END = {
    metric.name: metric
    for metric in (
        Metric("throughput_ops_s", "ops/s", "higher", bound=0.10),
        Metric("latency_p50_ms", "ms", "lower", bound=0.10, floor=0.01),
        Metric("latency_p90_ms", "ms", "lower", bound=0.10, floor=0.05),
        Metric("setup_s", "s", "lower", bound=0.10, floor=0.05),
        Metric("peak_rss_mb", "MB", "lower", bound=0.10, floor=2.0),
        # reported only by the workloads they apply to (see Workload.extras)
        Metric("latency_p99_ms", "ms", "lower", bound=0.10, floor=0.1),
        Metric("write_p50_ms", "ms", "lower", bound=0.10, floor=0.05),
        Metric("write_p90_ms", "ms", "lower", bound=0.10, floor=0.1),
        Metric("error_rate", "share", "lower"),
        Metric("worker_rss_mb", "MB", "lower", bound=0.10, floor=2.0),
    )
}

#: the end-to-end metrics BENCHMARK.json lists, with the bound it gives each.
#: Its bound is a share of the parent's median with no floor, applied to
#: unpaired sets.  It lists the metrics every workload reports that repeated
#: within their bound in both baseline sets on every workload
#: (bench/results/baseline.md), and set-up, which it requires.  Set-up takes
#: 0.25, the largest bound the format allows: its floor of 0.05 s is 24-150%
#: of a set-up here, so a smaller share without a floor would be stricter
#: than its own rule.
LISTED = {"setup_s": 0.25, "peak_rss_mb": 0.10}


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


PER_LAYER = {
    metric.name: metric
    for metric in (
        _layer("xquery.parser.calls_per_op", "calls/op"),
        _layer("xquery.parser.self_us_per_op", "us/op"),
        _layer("xquery.compile.self_us_per_op", "us/op"),
        _layer("xquery.compile.cache_hit_ratio", "ratio", "higher"),
        _layer("xquery.algebra.lower_us_per_op", "us/op"),
        _layer("xquery.algebra.exec_us_per_op", "us/op"),
        _layer("xquery.evaluator.self_us_per_op", "us/op"),
        _layer("docgen.phase1_us_per_op", "us/op"),
        _layer("docgen.phase2_us_per_op", "us/op"),
        _layer("docgen.phase3_us_per_op", "us/op"),
        _layer("docgen.phase4_us_per_op", "us/op"),
        _layer("docgen.phase5_us_per_op", "us/op"),
        _layer("docgen.bytes_copied_per_op", "bytes/op"),
        _layer("xslt.transform.self_us_per_op", "us/op"),
        _layer("xmlio.serializer.self_us_per_op", "us/op"),
        _layer("xmlio.serializer.bytes_per_op", "bytes/op"),
        _layer("querycalc.via_xquery.codegen_us_per_op", "us/op"),
        _layer("serving.partition.route_us_per_op", "us/op"),
        _layer("serving.pool.execute_us_per_op", "us/op"),
        _layer("serving.pool.roundtrips_per_op", "calls/op"),
        _layer("serving.pool.merge_us_per_op", "us/op"),
        _layer("serving.pool.scatter_share", "ratio"),
        _layer("serving.worker.busy_us_per_op", "us/op"),
        _layer("serving.pool.wait_us_per_op", "us/op"),
        _layer("serving.pool.restarts", "count"),
        _layer("querycalc.service.run_self_us_per_op", "us/op"),
        _layer("querycalc.service.result_hit_ratio", "ratio", "higher"),
        _layer("querycalc.service.plan_hit_ratio", "ratio", "higher"),
        _layer("querycalc.service.kept_ratio", "ratio", "higher"),
        _layer("querycalc.service.propagate_us_per_write", "us/write"),
        _layer("xquery.updates.apply_us_per_write", "us/write"),
        _layer("awb.xml_io.export_us_per_write", "us/write"),
        _layer("awb.xml_io.subtree_exports_per_write", "count/write"),
        _layer("awb.xml_io.full_exports", "count"),
        _layer("xquery.algebra.stats_deltas_per_write", "count/write"),
        _layer("collections.service.run_self_us_per_op", "us/op"),
        _layer("collections.service.result_hit_ratio", "ratio", "higher"),
        _layer("collections.service.scatter_share", "ratio"),
        _layer("collections.worker.request_us_per_op", "us/op"),
        _layer("collections.worker.roundtrips_per_op", "calls/op"),
        _layer("collections.partition.merge_us_per_op", "us/op"),
        _layer("collections.fulltext.search_us_per_op", "us/op"),
        _layer("collections.kwic.self_us_per_op", "us/op"),
        _layer("collections.store.put_us_per_write", "us/write"),
        _layer("collections.fulltext.maintenance_ops_per_write", "count/write"),
        _layer("bench.unattributed_share", "ratio"),
        _layer("bench.trace_overhead", "ratio", "higher"),
    )
}
