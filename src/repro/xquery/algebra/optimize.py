"""The estimate pass ``explain`` runs over a lowered plan.

The plan that runs is fixed at lowering (:mod:`.lowering` orders
predicates by one fixed rule and picks the join key), so nothing here
changes what executes.  Given a :class:`~.stats.StatisticsCatalog`, the
pass fills what ``--explain`` prints:

* **cardinality estimates** — every plan node gets an ``est_rows`` from
  the catalog (per-name counts, fan-out, attribute selectivity);
  positional predicates count as the slices lowering compiled them to;
* **occurrence marks** — when the catalog carries the export's schema, a
  provably dead path surfaces as ``occ=empty`` with 0 estimated rows, and
  a join hashing on a proven key (``present == count == distinct``) as
  ``occ=?``.  The static-type pass's occurrences are display-only too:
  ``explain`` computes them and :func:`annotate_occurrences` fills the
  marks this pass left empty.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .plans import (
    AttrExistsPred,
    AttrMembershipPred,
    AttrValueEqPred,
    BuiltinCallPlan,
    EvalPlan,
    FilterPlan,
    FLWORPlan,
    ForJoinOp,
    ForOp,
    FullTextScanPlan,
    GenericPred,
    InlineCallPlan,
    LetOp,
    OrderOp,
    PathPlan,
    Plan,
    PositionalPred,
    SequencePlan,
    SetOpPlan,
    StepPlan,
    StringFnPlan,
    VarPlan,
    WhereOp,
)
from .stats import DEFAULT_STATS, StatisticsCatalog

__all__ = ["annotate_occurrences", "estimate_plan"]


def estimate_plan(plan: Plan, stats: Optional[StatisticsCatalog] = None) -> Plan:
    """Fill *plan*'s ``est_rows`` and schema ``occ`` marks; returns it."""
    _Estimator(stats or DEFAULT_STATS).visit(plan, None)
    return plan


def annotate_occurrences(plan: Plan, occurrences: Dict[int, str]) -> None:
    """Fill the ``[occ=...]`` marks of an estimated *plan* from the static
    type pass: *occurrences* maps ``id(ast expr)`` to an occurrence
    indicator.  A mark the estimate pass set itself stands; a
    ``for``/``let`` operator always takes its bound expression's
    occurrence."""
    stack = [plan]
    while stack:
        node = stack.pop()
        expr = getattr(node, "expr", None)
        if expr is not None and node.occ is None:
            node.occ = occurrences.get(id(expr))
        if isinstance(node, FLWORPlan):
            for op in node.ops:
                if isinstance(op, ForOp):
                    op.occ = occurrences.get(id(op.clause.source))
                elif isinstance(op, LetOp):
                    op.occ = occurrences.get(id(op.clause.value))
        stack.extend(child for child in node.children() if child is not None)


class _Estimator:
    def __init__(self, stats: StatisticsCatalog):
        self.stats = stats
        self.schema = stats.schema

    # -- dispatch ---------------------------------------------------------

    def visit(self, plan: Plan, input_rows: Optional[float]) -> float:
        """Annotate *plan*, returning its estimated output cardinality."""
        plan.occ = None  # re-derived below; stale marks must not survive
        if isinstance(plan, PathPlan):
            rows, _ = self._visit_path(plan)
        elif isinstance(plan, FilterPlan):
            rows = self.visit(plan.base, input_rows)
            rows = self._apply_pred_estimates(plan.predicates, None, rows)
        elif isinstance(plan, FLWORPlan):
            rows = self._visit_flwor(plan)
        elif isinstance(plan, SetOpPlan):
            left = self.visit(plan.left, input_rows)
            right = self.visit(plan.right, input_rows)
            rows = left + right if plan.op == "union" else min(left, right)
        elif isinstance(plan, SequencePlan):
            rows = sum(self.visit(item, input_rows) for item in plan.items)
        elif isinstance(plan, StringFnPlan):
            self.visit(plan.args[0], input_rows)
            rows = 1.0
        elif isinstance(plan, FullTextScanPlan):
            for arg in plan.args:
                self.visit(arg, input_rows)
            rows = self.stats.fulltext_estimate(plan.collection, plan.phrase)
        elif isinstance(plan, BuiltinCallPlan):
            rows = 1.0
            for arg in plan.args:
                rows = self.visit(arg, input_rows)
            # pass-through calls (trace) carry their last argument's rows;
            # for anything else the estimate is just "a value".
            if plan.name != "trace":
                rows = 1.0
        elif isinstance(plan, InlineCallPlan):
            for arg in plan.args:
                self.visit(arg, input_rows)
            rows = self.visit(plan.body, input_rows)
        elif isinstance(plan, (VarPlan, EvalPlan)):
            rows = 1.0
        else:  # LiteralPlan and friends
            rows = float(len(getattr(plan, "values", [0])))
        plan.est_rows = rows
        return rows

    # -- scans ------------------------------------------------------------

    def _visit_path(self, plan: PathPlan) -> Tuple[float, Optional[str]]:
        """Annotate a scan, threading the schema-anchored element name.

        A path *anchors* to the catalog's schema at a child step that
        selects the schema's root element; from there each further child
        step follows (or falls off) the closed parent→child edges.  A
        provably dead tail zeroes the estimate and marks ``occ=empty``.
        """
        plan.occ = None
        if plan.anchor is None and plan.base is not None:
            rows = self.visit(plan.base, None)
        else:
            rows = 1.0
        anchored: Optional[str] = None
        dead = False
        for step in plan.steps:
            rows, anchored, step_dead = self._visit_step(step, rows, anchored)
            dead = dead or step_dead
        if dead:
            plan.occ = "empty"
        return rows, anchored

    def _visit_step(
        self, step: StepPlan, input_rows: float, anchored: Optional[str]
    ) -> Tuple[float, Optional[str], bool]:
        stats = self.stats
        schema = self.schema
        name = step.test.name if step.test.kind == "name" else None
        next_anchor: Optional[str] = None
        dead = False
        if step.axis in ("child", "descendant", "descendant-or-self"):
            if name is not None:
                # a named scan can never yield more than the name's count —
                # and a single base node may own all of them.
                total = float(stats.element_count(name))
                if input_rows <= 1.0:
                    rows = total
                else:
                    per_node = stats.fanout(None) if step.axis == "child" else 10.0
                    rows = max(min(total, input_rows * per_node), 0.0)
                if schema is not None and step.axis == "child":
                    if anchored is not None:
                        decl = schema.element(anchored)
                        if decl is not None and not decl.open_content:
                            if name in decl.children:
                                next_anchor = name
                            else:
                                rows, dead = 0.0, True
                    elif name == schema.root:
                        next_anchor = name
            else:
                rows = input_rows * stats.fanout(None)
        elif step.axis == "attribute":
            rows = input_rows
            if (
                schema is not None
                and anchored is not None
                and name is not None
                and not schema.attribute_allowed(anchored, name)
            ):
                rows, dead = 0.0, True
        elif step.axis in ("self", "parent"):
            rows = input_rows
        else:
            rows = input_rows * 2.0
        rows = self._apply_pred_estimates(
            step.predicates, name, rows, anchored=next_anchor
        )
        return rows, next_anchor, dead

    def _apply_pred_estimates(
        self, predicates, element, rows: float, anchored: Optional[str] = None
    ) -> float:
        schema = self.schema if anchored is not None else None
        for pred in predicates:
            if isinstance(pred, PositionalPred):
                rows = 1.0 if pred.op in ("eq", "last") else min(rows, float(pred.k))
                continue
            if schema is not None and isinstance(pred, AttrExistsPred):
                if schema.attribute_required(anchored, pred.name):
                    # every <anchored> the exporter writes carries the
                    # attribute: the check keeps all its input.
                    continue
            if schema is not None and isinstance(
                pred, (AttrValueEqPred, AttrMembershipPred)
            ):
                literals = (
                    {pred.value}
                    if isinstance(pred, AttrValueEqPred)
                    else set(pred.values)
                )
                if not schema.attribute_allowed(anchored, pred.name):
                    rows = 0.0
                    continue
                domain = schema.attribute_domain(anchored, pred.name)
                if domain is not None and not (literals & domain):
                    # provably vacuous (the XQL012 shape): estimate zero.
                    rows = 0.0
                    continue
            if (
                isinstance(pred, AttrValueEqPred)
                and element is not None
                and self._is_unique_key(element, pred.name)
            ):
                rows = min(rows, 1.0)
                continue
            rows *= self._pred_selectivity(pred, element)
        return rows

    def _is_unique_key(self, element: str, attribute: str) -> bool:
        """Every *element* carries *attribute*, all values distinct — a key."""
        stats = self.stats
        count = stats.element_counts.get(element)
        if not count:
            return False
        key = (element, attribute)
        return (
            stats.attr_present.get(key) == count
            and stats.attr_distinct.get(key) == count
        )

    def _pred_selectivity(self, pred, element: Optional[str]) -> float:
        stats = self.stats
        if isinstance(pred, AttrValueEqPred):
            return stats.attr_selectivity(element, pred.name)
        if isinstance(pred, AttrMembershipPred):
            single = stats.attr_selectivity(element, pred.name)
            return min(1.0, single * max(len(pred.values), 1))
        if isinstance(pred, AttrExistsPred):
            if element is not None:
                present = stats.attr_present.get((element, pred.name))
                total = stats.element_count(element)
                if present is not None and total:
                    return min(1.0, present / total)
            return 0.8
        if isinstance(pred, GenericPred):
            return 0.5
        return 1.0

    # -- FLWOR pipelines --------------------------------------------------

    def _visit_flwor(self, plan: FLWORPlan) -> float:
        tuples = 1.0
        for op in plan.ops:
            op.occ = None
            if isinstance(op, ForJoinOp):
                scan_rows, scan_anchor = self._visit_path(op.scan)
                op.scan.est_rows = scan_rows
                element = (
                    op.scan.steps[-1].test.name
                    if op.scan.steps and op.scan.steps[-1].test.kind == "name"
                    else None
                )
                distinct = self.stats.attr_distinct_count(element, op.build_attr)
                matches = max(scan_rows / max(distinct, 1), 0.0)
                if element is not None and self._is_unique_key(element, op.build_attr):
                    # the build side hashes a proven key: at most one match
                    # per probe value.
                    matches = min(matches, 1.0)
                    op.occ = "?"
                matches = self._apply_pred_estimates(
                    op.residual, element, matches, anchored=scan_anchor
                )
                tuples *= max(matches, 0.001)
            elif isinstance(op, ForOp):
                tuples *= max(self.visit(op.source, None), 0.001)
            elif isinstance(op, LetOp):
                self.visit(op.value, None)
            elif isinstance(op, WhereOp):
                self.visit(op.condition, None)
                tuples *= 0.5
            elif isinstance(op, OrderOp):
                for key, _, _ in op.specs:
                    self.visit(key, None)
            op.est_rows = tuples
        result_rows = self.visit(plan.result, tuples)
        return tuples * max(result_rows, 0.0) if plan.ops else result_rows
