"""The XQuery backend for the query calculus.

Compiles a calculus query to XQuery source evaluated over the model's XML
export by :mod:`repro.xquery`.  This is the document-generation-era
implementation the paper's team abandoned: "Calling XQuery from Java to
evaluate queries was preposterously inefficient, and would have made the
workbench unusably slow."  Experiment E6 measures exactly how much slower
it is than :mod:`repro.querycalc.native`.

The generated program joins ``<relation>`` elements against ``<node>``
elements by id — an O(nodes × relations) scan per hop, which is honest to
how a 2004 XQuery engine without join indexes evaluated it.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from ..awb.metamodel import Metamodel
from ..awb.model import Model, ModelNode
from ..awb.xml_io import IncrementalExporter
from ..xdm import DocumentNode, ElementNode
from ..xquery import XQueryEngine
from .ast import Collect, FilterProperty, FilterType, Follow, Query
from .native import QueryRuntimeError


def _string_sequence(names: List[str]) -> str:
    quoted = ", ".join(f'"{name}"' for name in names)
    return f"({quoted})"


class XQueryCalculusBackend:
    """Compiles and runs calculus queries via the XQuery engine.

    The XML export is maintained *incrementally*: the backend listens to
    model mutations and re-exports only dirty ``<node>``/``<relation>``
    subtrees on the next query, instead of rebuilding the whole document.
    A point mutation on a big model therefore costs one subtree export,
    not an O(model) rebuild.

    Whoever shares a backend across threads holds :attr:`lock` around
    every touch of the export or the catalog: reading either may patch
    the export, which must not interleave with an update.
    """

    def __init__(self, model: Model, engine: Optional[XQueryEngine] = None):
        self.model = model
        self.metamodel: Metamodel = model.metamodel
        self.engine = engine or XQueryEngine()
        self.lock = threading.Lock()
        self._exporter = IncrementalExporter(model)
        self._statistics = None
        self._stats_cursor = None
        self.stats_rebuilds = 0
        self.stats_deltas = 0

    def invalidate_export(self) -> None:
        """Force a full re-export on next use (normally unnecessary: the
        exporter tracks mutations and patches affected subtrees itself)."""
        self._exporter.invalidate()

    @property
    def export(self) -> DocumentNode:
        return self._exporter.export()

    @property
    def export_generation(self) -> int:
        """``model.generation`` as of the last applied export."""
        return self._exporter.generation

    def export_stats(self) -> dict:
        """Full-vs-subtree export counters from the incremental exporter."""
        stats = self._exporter.stats()
        stats["stats_rebuilds"] = self.stats_rebuilds
        stats["stats_deltas"] = self.stats_deltas
        return stats

    @property
    def statistics(self):
        """The export's :class:`~repro.xquery.algebra.StatisticsCatalog`.

        Collected in one walk over the current export document on first
        use; when the export generation moves, the catalog is *maintained*
        from the exporter's subtree-delta log (subtract the old subtree,
        add the new one) rather than recollected — a point mutation costs
        O(subtree), not O(document).  Falls back to a full walk when the
        log does not cover the span (a full export rebuild happened).
        Either way, the catalog the algebra cost pass reads is always the
        current generation's.
        """
        from ..xquery.algebra import StatisticsCatalog

        document = self._exporter.export()
        generation = self._exporter.generation
        if self._statistics is None or self._statistics.generation != generation:
            delta = (
                self._exporter.delta_since(self._stats_cursor)
                if self._statistics is not None
                else None
            )
            if delta is not None:
                self._statistics.maintain(delta, generation)
                self.stats_deltas += 1
            else:
                self._statistics = StatisticsCatalog.from_root(
                    document.document_element(), generation
                )
                self.stats_rebuilds += 1
        self._stats_cursor = self._exporter.delta_cursor()
        return self._statistics

    def compile_to_xquery(self, query: Query) -> str:
        """Translate a calculus query into XQuery source text."""
        lines: List[str] = ['declare variable $model external;']
        pipeline = self._compile_start(query)
        for index, step in enumerate(query.steps, start=1):
            function_name = f"local:step{index}"
            lines.append(self._compile_step(step, function_name))
            pipeline = f"{function_name}({pipeline})"
        lines.append(self._compile_collect(query.collect, pipeline, query.trace))
        return "\n".join(lines)

    def run(self, query: Query) -> List[ModelNode]:
        """Compile, evaluate, and map results back to live model nodes."""
        start_id = query.start.node_id
        if start_id is not None and start_id not in self.model.nodes:
            # the generated XQuery would just select nothing, but the
            # native backend treats a dangling start id as a caller error
            # — found by the differential fuzzer, aligned here.
            raise QueryRuntimeError(f"start node {start_id!r} is not in the model")
        source = self.compile_to_xquery(query)
        root = self.export.document_element()
        result = self.engine.compile(source).run(
            variables={"model": root}, statistics=self.statistics
        )
        nodes: List[ModelNode] = []
        for item in result:
            if not isinstance(item, ElementNode):
                continue
            node_id = item.get_attribute("id")
            if node_id is not None and node_id in self.model.nodes:
                nodes.append(self.model.nodes[node_id])
        return nodes

    # -- compilation --------------------------------------------------------

    def _compile_start(self, query: Query) -> str:
        start = query.start
        if start.all_nodes:
            return "$model/node"
        if start.node_id is not None:
            return f'$model/node[@id eq "{start.node_id}"]'
        type_names = self.metamodel.node_subtype_names(start.type)
        return f"$model/node[@type = {_string_sequence(type_names)}]"

    def _compile_step(self, step, function_name: str) -> str:
        if isinstance(step, Follow):
            return self._compile_follow(step, function_name)
        if isinstance(step, FilterType):
            type_names = self.metamodel.node_subtype_names(step.type)
            return (
                f"declare function {function_name}($nodes) {{\n"
                f"  $nodes[@type = {_string_sequence(type_names)}]\n"
                f"}};"
            )
        if isinstance(step, FilterProperty):
            return self._compile_filter_property(step, function_name)
        raise TypeError(f"unknown step {type(step).__name__}")

    def _compile_follow(self, step: Follow, function_name: str) -> str:
        if step.include_subrelations:
            relation_names = self.metamodel.relation_subtype_names(step.relation)
        else:
            relation_names = [step.relation]
        relation_test = f"@type = {_string_sequence(relation_names)}"
        if step.direction == "forward":
            here, there = "@source", "@target"
        else:
            here, there = "@target", "@source"
        target_filter = ""
        if step.target_type is not None:
            target_names = self.metamodel.node_subtype_names(step.target_type)
            target_filter = f"[@type = {_string_sequence(target_names)}]"
        return (
            f"declare function {function_name}($nodes) {{\n"
            f"  for $n in $nodes\n"
            f"  for $r in root($n)/awb-model/relation[{relation_test}]"
            f"[{here} eq $n/@id]\n"
            f"  return root($n)/awb-model/node[@id eq $r/{there}]{target_filter}\n"
            f"}};"
        )

    def _compile_filter_property(self, step: FilterProperty, function_name: str) -> str:
        value = step.value.replace('"', "&quot;")
        prop = f'property[@name eq "{step.name}"]'
        if step.op == "contains":
            condition = f'contains(string({prop}), "{value}")'
        else:
            # Mirror the native backend's per-node coercion: the export
            # stamps each property with its stored type, so the generated
            # query can branch on it.  Numeric values compare as numbers
            # (the fuzzer caught "16" lt "2" being true here), booleans as
            # booleans, everything else as strings.  When the query's
            # literal does not parse as the branch's type, native's
            # coercion fails and the node never matches — fold that to
            # false() at compile time, the literal is right here.
            try:
                float(step.value)
                numeric = f'number(string({prop})) {step.op} number("{value}")'
            except ValueError:
                numeric = "false()"
            truth = "true()" if step.value.strip().lower() == "true" else "false()"
            boolean = f'(string({prop}) eq "true") {step.op} {truth}'
            strings = f'string({prop}) {step.op} "{value}"'
            condition = (
                f"{prop} and "
                f'(if ({prop}/@type = ("integer", "float")) then {numeric}\n'
                f'   else if ({prop}/@type eq "boolean") then {boolean}\n'
                f"   else {strings})"
            )
        return (
            f"declare function {function_name}($nodes) {{\n"
            f"  $nodes[{condition}]\n"
            f"}};"
        )

    def _compile_collect(
        self, collect: Collect, pipeline: str, trace: Optional[str] = None
    ) -> str:
        sort_property = collect.sort_by or self.metamodel.label_property
        # "$x | ()" deduplicates by node identity and restores document
        # order — the idiomatic XQuery way to build a set of nodes.
        dedup = f"({pipeline} | ())" if collect.distinct else f"({pipeline})"
        if trace is not None:
            # this engine's fn:trace returns its LAST argument, so the label
            # goes first and the pipeline value flows through unchanged.
            label = trace.replace('"', "&quot;")
            dedup = f'trace("{label}", {dedup})'
        direction = "descending" if collect.descending else "ascending"
        # the id tie-break takes the same direction as the sort key: native
        # sorts on the tuple (value, id) and reverses the whole tuple, so a
        # descending sort breaks ties by *descending* id.  (The fuzzer found
        # the stable-sort document-order ties this used to leave behind.)
        return (
            f"for $result in {dedup}\n"
            f'order by string($result/property[@name eq "{sort_property}"]) '
            f"{direction}, string($result/@id) {direction}\n"
            f"return $result"
        )
