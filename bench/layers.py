"""Which entry points are traced, and how spans become per-layer metrics.

Layer names are the program's module names.  Times are self time (span
time minus the spans opened inside it) per operation or per write, in
microseconds, unless the metric says it is a whole call (``exec``,
``execute``, ``request``, ``busy``, ``search``, ``phaseN``, ``put``).
"""

from __future__ import annotations

from typing import Dict, Optional

#: (span name, traced callable, size of its result or None)
TARGETS = (
    ("xquery.parser", "repro.xquery.parser:parse_query", None),
    ("xquery.compile", "repro.xquery.api:XQueryEngine.compile", None),
    ("xquery.evaluator", "repro.xquery.api:CompiledQuery.run", None),
    ("xquery.algebra.lower", "repro.xquery.algebra:AlgebraProgram.__init__", None),
    ("xquery.algebra.exec", "repro.xquery.algebra:AlgebraProgram.run", None),
    ("xquery.updates.apply", "repro.xquery.updates.apply:apply_script", None),
    (
        "docgen.generate",
        "repro.docgen.xquery_impl.runner:XQueryDocumentGenerator.generate",
        None,
    ),
    ("xslt.transform", "repro.xslt.engine:transform", None),
    ("xmlio.serializer", "repro.xmlio.serializer:serialize", len),
    ("awb.xml_io.export", "repro.awb.xml_io:IncrementalExporter.export", None),
    (
        "querycalc.via_xquery.codegen",
        "repro.querycalc.via_xquery:XQueryCalculusBackend.compile_to_xquery",
        None,
    ),
    ("querycalc.service.run", "repro.querycalc.service.service:QueryService.run", None),
    (
        "querycalc.service.propagate",
        "repro.querycalc.service.results:ResultCache.propagate",
        None,
    ),
    ("serving.partition.route", "repro.serving.partition:route_query", None),
    ("serving.pool.execute", "repro.serving.pool:ProcessPool.execute", None),
    ("serving.pool.request", "repro.serving.pool:WorkerHandle.request", None),
    ("serving.pool.merge", "repro.serving.pool:merge_partials", None),
    ("serving.worker.run", "repro.serving.worker:ShardWorker.run", None),
    ("collections.service.run", "repro.collections.service:SearchService.run", None),
    (
        "collections.worker.request",
        "repro.collections.service:_WorkerHandle.request",
        None,
    ),
    ("collections.partition.merge", "repro.collections.worker:merge_rows", None),
    ("collections.fulltext.search", "repro.collections.store:DocumentStore.search", None),
    ("collections.kwic", "repro.collections.kwic:kwic_snippets", None),
    ("collections.store.put", "repro.collections.store:DocumentStore.put_text", None),
)

#: spans counted by position under their parent: docgen's five phases.
ORDINAL = ("xquery.evaluator",)

#: the benchmark's own span around each operation.
OP_SPAN = "bench.op"

_NS_PER_US = 1000.0


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, reading 0 when nothing happened (whole is 0)."""
    return part / whole if whole else 0.0


def layer_metrics(
    front: Dict[str, list],
    workers: Dict[str, list],
    counters: Dict[str, float],
    ops: int,
    writes: int,
    overhead: Optional[float],
) -> Dict[str, float]:
    """Per-layer metrics from span aggregates and public-counter deltas.

    ``front`` holds the spans of the process the clients run in,
    ``workers`` those of its worker processes; ``counters`` are the
    window's deltas of the program's own counters (``end:`` keys are
    absolute values at the end of the window).
    """

    def row(layer: str, side: str = "both"):
        rows = []
        if side in ("both", "front"):
            rows.append(front.get(layer))
        if side in ("both", "workers"):
            rows.append(workers.get(layer))
        calls = total = self_ns = units = 0
        for found in rows:
            if found:
                calls += found[0]
                total += found[1]
                self_ns += found[2]
                units += found[3]
        return calls, total, self_ns, units

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def per_write(value: float) -> float:
        return _ratio(value, writes)

    def self_us(layer: str, side: str = "both") -> float:
        return per_op(row(layer, side)[2] / _NS_PER_US)

    def total_us(layer: str, side: str = "both") -> float:
        return per_op(row(layer, side)[1] / _NS_PER_US)

    def write_us(layer: str, side: str = "front") -> float:
        return per_write(row(layer, side)[1] / _NS_PER_US)

    def count(name: str) -> float:
        return counters.get(name, 0)

    op_calls, op_total, op_self, _ = row(OP_SPAN, "front")
    requests = row("serving.pool.request", "front")
    busy = row("serving.worker.run", "workers")
    propagated = count("kept") + count("patched")
    metrics = {
        "xquery.parser.calls_per_op": per_op(row("xquery.parser")[0]),
        "xquery.parser.self_us_per_op": self_us("xquery.parser"),
        "xquery.compile.self_us_per_op": self_us("xquery.compile"),
        "xquery.compile.cache_hit_ratio": _ratio(
            count("compile_hits"), count("compile_hits") + count("compile_misses")
        ),
        "xquery.algebra.lower_us_per_op": total_us("xquery.algebra.lower"),
        "xquery.algebra.exec_us_per_op": total_us("xquery.algebra.exec"),
        "xquery.evaluator.self_us_per_op": self_us("xquery.evaluator"),
        "docgen.bytes_copied_per_op": per_op(count("bytes_copied")),
        "xslt.transform.self_us_per_op": self_us("xslt.transform"),
        "xmlio.serializer.self_us_per_op": self_us("xmlio.serializer"),
        "xmlio.serializer.bytes_per_op": per_op(row("xmlio.serializer")[3]),
        "querycalc.via_xquery.codegen_us_per_op": total_us("querycalc.via_xquery.codegen"),
        "serving.partition.route_us_per_op": total_us("serving.partition.route"),
        "serving.pool.execute_us_per_op": total_us("serving.pool.execute"),
        "serving.pool.roundtrips_per_op": per_op(requests[0]),
        "serving.pool.merge_us_per_op": total_us("serving.pool.merge"),
        "serving.pool.scatter_share": _ratio(
            count("routes_scatter"), count("routes_scatter") + count("routes_single")
        ),
        "serving.worker.busy_us_per_op": per_op(busy[1] / _NS_PER_US),
        # the pipe round trip apart from worker compute: request time the
        # worker did not spend inside its run.
        "serving.pool.wait_us_per_op": per_op((requests[1] - busy[1]) / _NS_PER_US),
        "serving.pool.restarts": count("restarts"),
        "querycalc.service.run_self_us_per_op": self_us("querycalc.service.run", "front"),
        "querycalc.service.result_hit_ratio": _ratio(
            count("result_hits"), count("result_hits") + count("result_misses")
        ),
        "querycalc.service.plan_hit_ratio": _ratio(
            count("plan_hits"), count("plan_hits") + count("plan_misses")
        ),
        "querycalc.service.kept_ratio": _ratio(
            propagated, propagated + count("invalidated")
        ),
        "querycalc.service.propagate_us_per_write": write_us("querycalc.service.propagate"),
        "xquery.updates.apply_us_per_write": write_us("xquery.updates.apply"),
        "awb.xml_io.export_us_per_write": write_us("awb.xml_io.export"),
        "awb.xml_io.subtree_exports_per_write": per_write(count("subtree_exports")),
        "awb.xml_io.full_exports": count("end:full_exports"),
        "xquery.algebra.stats_deltas_per_write": per_write(count("stats_deltas")),
        "collections.service.run_self_us_per_op": self_us("collections.service.run", "front"),
        "collections.service.result_hit_ratio": _ratio(
            count("search_hits"), count("search_hits") + count("search_misses")
        ),
        "collections.service.scatter_share": _ratio(
            count("search_scatter"), count("search_scatter") + count("search_single")
        ),
        "collections.worker.request_us_per_op": total_us("collections.worker.request", "front"),
        "collections.worker.roundtrips_per_op": per_op(
            row("collections.worker.request", "front")[0]
        ),
        "collections.partition.merge_us_per_op": total_us("collections.partition.merge"),
        "collections.fulltext.search_us_per_op": total_us("collections.fulltext.search"),
        "collections.kwic.self_us_per_op": self_us("collections.kwic"),
        "collections.store.put_us_per_write": write_us("collections.store.put"),
        "collections.fulltext.maintenance_ops_per_write": per_write(
            count("maintenance_ops")
        ),
        "bench.unattributed_share": _ratio(op_self, op_total) if op_calls else 0.0,
        "bench.trace_overhead": overhead if overhead is not None else 0.0,
    }
    for phase in range(1, 6):
        key = f"docgen.generate>xquery.evaluator#{phase}"
        metrics[f"docgen.phase{phase}_us_per_op"] = total_us(key)
    return metrics
