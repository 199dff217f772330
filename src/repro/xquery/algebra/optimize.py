"""Rewrite/cost pass over lowered plans, driven by the statistics catalog.

Every decision made here is semantics-preserving by construction, so the
pass is free to be wrong about costs without ever being wrong about
results:

* **predicate ordering** — within a maximal run of *pure, position-free*
  compiled attribute predicates on one step, filters commute; the most
  selective one goes first.  Runs never extend across a positional or
  generic predicate (positions renumber between predicates, so those are
  sequence points).
* **join-key choice** — when a scan carries several interchangeable
  equi-join predicates, hash on the attribute with the most distinct
  values; the others demote to residual filters (commuting, as above).
* **cardinality annotation** — every plan node gets an ``est_rows`` for
  ``--explain``; the estimates come straight from the export-time catalog
  (per-name counts, fan-out, attribute selectivity).

Positional short-circuiting itself is compiled during lowering
(:class:`~.plans.PositionalPred` slices instead of iterating); this pass
only accounts for it in the estimates.

Two more decisions lean on the export's schema and statistics:

* **occurrence marks** — proven-dead schema paths surface in ``--explain``
  as ``occ=empty`` with 0 estimated rows, and a join on a proven key as
  ``occ=?``.  The static-type pass's occurrences are display-only, so
  they are not an input here: ``explain`` computes them and
  :func:`annotate_occurrences` fills the marks this pass left empty.
* **schema-licensed pruning** — a catalog that carries a ``schema``
  (attached by ``StatisticsCatalog.from_root`` only after verifying the
  walked document conforms) warrants that schema's facts for the
  document the query runs against.  Under that warrant, an existence
  check on a required attribute of a schema-anchored step keeps every
  input, so it is marked ``skipped`` and the executor never evaluates
  it.  This is the one decision here that leans on more than costs; the
  warrant is scoped to the catalog's export generation, re-optimizing
  under a schema-less catalog resets every ``skipped`` flag, and the
  differential fuzzer holds the backend to bit-identical results as
  always.  Join-key singletons, by contrast, are pure statistics
  (``present == count == distinct`` on this generation) and only shape
  estimates and key choice.
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

__all__ = ["annotate_occurrences", "optimize_plan"]

_REORDERABLE = (AttrMembershipPred, AttrValueEqPred, AttrExistsPred)


def optimize_plan(plan: Plan, stats: Optional[StatisticsCatalog] = None) -> Plan:
    """Annotate and (safely) reorder *plan* in place; returns it."""
    _Optimizer(stats or DEFAULT_STATS).visit(plan, None)
    return plan


def annotate_occurrences(plan: Plan, occurrences: Dict[int, str]) -> None:
    """Fill the ``[occ=...]`` marks of an optimized *plan* from the static
    type pass: *occurrences* maps ``id(ast expr)`` to an occurrence
    indicator.  A mark the optimizer set itself stands; a ``for``/``let``
    operator always takes its bound expression's occurrence."""
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


class _Optimizer:
    def __init__(self, stats: StatisticsCatalog):
        self.stats = stats
        self.schema = stats.schema

    # -- dispatch ---------------------------------------------------------

    def visit(self, plan: Plan, input_rows: Optional[float]) -> float:
        """Annotate *plan*, returning its estimated output cardinality."""
        plan.occ = None  # re-derived below; stale marks must not survive
        if isinstance(plan, PathPlan):
            rows = self._visit_path(plan)
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
            self.visit(plan.arg, input_rows)
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
        elif isinstance(plan, VarPlan):
            rows = 1.0
        elif isinstance(plan, EvalPlan):
            rows = 1.0
        else:  # LiteralPlan and friends
            rows = float(len(getattr(plan, "values", [0])))
        plan.est_rows = rows
        return rows

    # -- scans ------------------------------------------------------------

    def _visit_path(self, plan: PathPlan) -> float:
        rows, _ = self._visit_path_anchored(plan)
        return rows

    def _visit_path_anchored(self, plan: PathPlan) -> Tuple[float, Optional[str]]:
        """Annotate a scan, threading the schema-anchored element name.

        A path *anchors* to the catalog's schema at a child step that
        selects the schema's root element; from there each further child
        step follows (or falls off) the closed parent→child edges.  A
        provably dead tail zeroes the estimate and marks ``occ=empty``.
        """
        plan.occ = None
        if plan.anchor is not None:
            rows = 1.0
        elif plan.base is not None:
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
        self._order_predicates(step, name)
        rows = self._apply_pred_estimates(
            step.predicates, name, rows, anchored=next_anchor
        )
        return rows, next_anchor, dead

    def _order_predicates(self, step: StepPlan, element: Optional[str]) -> None:
        """Most-selective-first within runs of commuting attribute filters."""
        predicates = step.predicates
        run_start = 0
        for index in range(len(predicates) + 1):
            at_end = index == len(predicates)
            if not at_end and isinstance(predicates[index], _REORDERABLE):
                continue
            run = predicates[run_start:index]
            if len(run) > 1:
                for pred in run:
                    pred.selectivity = self._pred_selectivity(pred, element)
                run.sort(key=lambda pred: pred.selectivity)
                predicates[run_start:index] = run
            run_start = index + 1

    def _apply_pred_estimates(
        self, predicates, element, rows: float, anchored: Optional[str] = None
    ) -> float:
        schema = self.schema if anchored is not None else None
        for pred in predicates:
            pred.skipped = False  # every pass re-proves (or loses) the skip
            if isinstance(pred, PositionalPred):
                rows = 1.0 if pred.op in ("eq", "last") else min(rows, float(pred.k))
                continue
            pred.selectivity = self._pred_selectivity(pred, element)
            if schema is not None and isinstance(pred, AttrExistsPred):
                if schema.attribute_required(anchored, pred.name):
                    # every <anchored> the exporter writes carries the
                    # attribute: the check keeps all its input.  Skip it.
                    pred.skipped = True
                    pred.selectivity = 1.0
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
            rows *= pred.selectivity
        return rows

    def _is_unique_key(self, element: str, attribute: str) -> bool:
        """Every *element* carries *attribute*, all values distinct — a key.

        A pure statistics fact about the walked document (no schema
        needed), so it may tighten estimates and steer join-key choice on
        any catalog.
        """
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
                self._choose_join_key(op)
                scan_rows, scan_anchor = self._visit_path_anchored(op.scan)
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

    def _choose_join_key(self, op: ForJoinOp) -> None:
        """Hash on the best attribute among interchangeable keys.

        Proven-unique keys (every element carries the attribute, all
        values distinct) beat everything — a singleton build side means at
        most one match per probe; among non-keys, most distinct wins.
        """
        if not op.candidates:
            return
        element = (
            op.scan.steps[-1].test.name
            if op.scan.steps and op.scan.steps[-1].test.kind == "name"
            else None
        )
        best_attr, best_probe, best_style, best_expr = (
            op.build_attr,
            op.probe_expr,
            op.style,
            op.join_expr,
        )

        def score_of(attr: str) -> tuple:
            unique = element is not None and self._is_unique_key(element, attr)
            return (unique, self.stats.attr_distinct_count(element, attr))

        best_score = score_of(best_attr)
        for attr, probe, style, expr in op.candidates:
            score = score_of(attr)
            if score > best_score:
                best_attr, best_probe, best_style, best_expr = attr, probe, style, expr
                best_score = score
        if best_expr is op.join_expr:
            return
        # demote the old key to a residual filter in the slot the new key
        # vacates; both are pure and position-free, so filters commute.
        for index, pred in enumerate(op.residual):
            if isinstance(pred, GenericPred) and pred.expr is best_expr:
                op.residual[index] = GenericPred(op.join_expr)
                break
        op.build_attr, op.probe_expr, op.style, op.join_expr = (
            best_attr,
            best_probe,
            best_style,
            best_expr,
        )
