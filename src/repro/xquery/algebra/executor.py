"""Set-at-a-time execution of lowered plans.

The executor produces bit-identical XDM sequences to the tree-walking
evaluator — same values, same document-order normalization, same errors at
the same locations, same ``fn:trace`` output.  It gets its speed from four
sources, each individually proven equivalent:

* **index scans** — every axis step runs through the closure compiler's
  :func:`~repro.xquery.compiler.run_path_step`, whose candidate scan reads
  the ``ElementNode`` name indexes for ``child::name`` and ``@name``
  instead of filtering all children;
* **sort elision** — that function's one rule,
  :func:`~repro.xquery.compiler.step_order`, skips the per-step
  ``sort_document_order`` when the step provably preserves document order
  (a forward axis over one node, or over ordered, non-nested nodes), which
  is the common case for the chains the calculus compiler emits;
* **hash joins** — a correlated ``[@attr eq $v/@id]`` predicate probes a
  hash table built once per distinct base instead of rescanning per tuple;
* **memoization** — loop-invariant sources, join build sides, and (across
  queries over one export generation, via a shared :class:`~repro.lru.LRU`)
  whole closed scans are computed once.

A FLWOR's tuple stream runs through the closure compiler's
:func:`~repro.xquery.compiler.run_flwor`, the one FLWOR rule both fast
engines share; the executor passes ``execute_plan`` with explicit bindings
and its own ``for`` sources (the invariant-source memo and the hash-join
probe).

Anything the lowering could not prove safe sits in an ``EvalPlan`` leaf and
runs on the program's closure compiler with the exact same dynamic context.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...lru import LRU
from ...xdm import (
    ElementNode,
    UntypedAtomic,
    atomize,
    is_node,
    sort_document_order,
)
from ..compiler import expand_descendants, run_flwor, run_path_step
from ..context import DynamicContext
from ..evaluator import (
    _error,
    _is_numeric_predicate,
    ebv,
    undefined_variable,
)
from ..errors import XQueryTypeError
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
    LiteralPlan,
    PathPlan,
    Plan,
    PositionalPred,
    PropertyFilterPred,
    SequencePlan,
    SetOpPlan,
    StepPlan,
    StringFnPlan,
    VarPlan,
    WhereOp,
)

__all__ = ["ExecState", "execute_plan"]

_MISSING = object()

class ExecState:
    """Per-run executor state: fallback closures, memos, the shared cache."""

    __slots__ = ("thunk", "shared", "join_builds", "scans", "roots", "probes")

    def __init__(self, thunk, shared: Optional[LRU] = None):
        #: ``AlgebraProgram.thunk``: AST expression -> its compiled closure.
        self.thunk = thunk
        #: the cross-query scan/join-build cache: keys are a closed, pure
        #: scan's ``scan_key`` (plus the hashed attribute, for a join build)
        #: and its base nodes' identities, so queries sharing a subplan over
        #: one document share the work.  A shard worker keeps one per export
        #: generation; it is read only after the per-run memos below miss.
        self.shared = shared
        #: (op identity, base node ids) -> _JoinBuild
        self.join_builds: Dict[tuple, "_JoinBuild"] = {}
        #: (plan identity, base node ids) -> result list
        self.scans: Dict[tuple, list] = {}
        #: id(node) -> (node, [root]): fn:root is pure per node, and join
        #: scans anchored on root($n) re-resolve it once per tuple — the
        #: node reference in the value pins the id against reuse.
        self.roots: Dict[int, tuple] = {}
        #: (op identity, build identity, probe key) -> match list, for
        #: single-key probes whose residual is tuple-independent.
        self.probes: Dict[tuple, list] = {}


def execute_plan(plan: Plan, ctx: DynamicContext, bindings: dict, state: ExecState):
    return _EXEC[type(plan)](plan, ctx, bindings, state)



# -- leaves ------------------------------------------------------------------


def _exec_eval(plan: EvalPlan, ctx, bindings, state):
    scope = ctx.with_variables(bindings) if bindings else ctx
    return state.thunk(plan.expr)(scope)


def _exec_literal(plan: LiteralPlan, ctx, bindings, state):
    return list(plan.values)


def _exec_var(plan: VarPlan, ctx, bindings, state):
    value = bindings.get(plan.name, _MISSING)
    if value is not _MISSING:
        return value
    try:
        return ctx.variables[plan.name]
    except KeyError:
        raise undefined_variable(plan.expr, ctx) from None


def _exec_sequence(plan: SequencePlan, ctx, bindings, state):
    result: list = []
    for item in plan.items:
        result.extend(execute_plan(item, ctx, bindings, state))
    return result


def _exec_string_fn(plan: StringFnPlan, ctx, bindings, state):
    from ..functions import _string_of

    return [_string_of(execute_plan(plan.arg, ctx, bindings, state), "string")]


def _exec_builtin_call(plan: BuiltinCallPlan, ctx, bindings, state):
    # args in order, then the builtin with the evaluator's exact calling
    # convention; the builtin reads focus/trace/config from ctx itself.
    args = [execute_plan(arg, ctx, bindings, state) for arg in plan.args]
    if plan.name == "root" and len(args) == 1 and len(args[0]) == 1:
        node = args[0][0]
        cached = state.roots.get(id(node))
        if cached is not None and cached[0] is node:
            return list(cached[1])
        result = plan.builtin(ctx, args, plan.expr)
        state.roots[id(node)] = (node, result)
        return list(result)
    return plan.builtin(ctx, args, plan.expr)


def _exec_full_text_scan(plan: FullTextScanPlan, ctx, bindings, state):
    # a pure pass-through to the ft:search builtin: the store behind the
    # dynamic context picks indexed postings or the brute-force document
    # scan, and both are pinned byte-identical.  The operator exists for
    # explain's catalog-backed estimate.
    args = [execute_plan(arg, ctx, bindings, state) for arg in plan.args]
    return plan.builtin(ctx, args, plan.expr)


def _exec_set_op(plan: SetOpPlan, ctx, bindings, state):
    from ..operators import set_operation

    left = execute_plan(plan.left, ctx, bindings, state)
    right = execute_plan(plan.right, ctx, bindings, state)
    try:
        return set_operation(plan.op, left, right)
    except XQueryTypeError as exc:
        raise _error(plan.expr, ctx, exc.bare_message, exc.code) from exc


def _exec_inline_call(plan: InlineCallPlan, ctx, bindings, state):
    declaration = plan.declaration
    if ctx.depth >= ctx.config.max_recursion_depth:
        raise _error(
            plan.expr,
            ctx,
            f"recursion depth limit exceeded calling {declaration.name}()",
            "FOER0000",
        )
    ctx.check_deadline()
    frame: Dict[str, list] = {}
    for param, arg in zip(declaration.params, plan.args):
        frame[param.name] = execute_plan(arg, ctx, bindings, state)
    scope = ctx.function_scope(frame)
    return execute_plan(plan.body, scope, {}, state)


# -- predicates --------------------------------------------------------------


def _generic_keep(state, pred_expr, item, position, size, scope) -> bool:
    result = state.thunk(pred_expr)(scope.with_focus(item, position, size))
    if _is_numeric_predicate(result):
        return float(result[0]) == position
    return ebv(result, pred_expr, scope)


def _apply_pred_plans(items, predicates, ctx, bindings, state):
    """Apply compiled predicates to one candidate list — `_apply_predicates`
    with fast paths; positions renumber between predicates, exactly as the
    reference does."""
    scope = None
    for pred in predicates:
        if not items:
            return items
        if isinstance(pred, PositionalPred):
            items = pred.apply(items)
            continue
        if scope is None:
            scope = ctx.with_variables(bindings) if bindings else ctx
        size = len(items)
        kept = []
        if isinstance(pred, AttrMembershipPred):
            name, values = pred.name, pred.values
            for position, item in enumerate(items, start=1):
                # only elements carry the name index (a per-item getattr
                # by string was measurably slower on scan-sized lists)
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(name)
                    if len(matches) == 1:  # avoid a generator per item
                        if matches[0].value in values:
                            kept.append(item)
                    elif any(a.value in values for a in matches):
                        kept.append(item)
                elif _generic_keep(state, pred.expr, item, position, size, scope):
                    kept.append(item)
        elif isinstance(pred, AttrValueEqPred):
            name, value = pred.name, pred.value
            for position, item in enumerate(items, start=1):
                if isinstance(item, ElementNode):
                    matches = item.attributes_by_name(name)
                    if len(matches) == 1:
                        if matches[0].value == value:
                            kept.append(item)
                    elif matches and _generic_keep(
                        state, pred.expr, item, position, size, scope
                    ):  # >1 attrs (keep-mode): the reference path raises
                        kept.append(item)
                elif _generic_keep(state, pred.expr, item, position, size, scope):
                    kept.append(item)
        elif isinstance(pred, AttrExistsPred):
            name = pred.name
            for position, item in enumerate(items, start=1):
                if isinstance(item, ElementNode):
                    if item.attributes_by_name(name):
                        kept.append(item)
                elif _generic_keep(state, pred.expr, item, position, size, scope):
                    kept.append(item)
        elif isinstance(pred, PropertyFilterPred):
            decide = pred.decide
            for position, item in enumerate(items, start=1):
                keep = decide(item)
                if keep is None:  # a node the shape cannot decide
                    keep = _generic_keep(state, pred.expr, item, position, size, scope)
                if keep:
                    kept.append(item)
        else:
            expr = pred.expr
            for position, item in enumerate(items, start=1):
                if _generic_keep(state, expr, item, position, size, scope):
                    kept.append(item)
        items = kept
    return items


# -- paths -------------------------------------------------------------------


def _path_base(plan: PathPlan, ctx, bindings, state):
    """Resolve a path's base items plus (ordered, non_nested) flags."""
    if plan.anchor is not None:
        if not is_node(ctx.item):
            raise _error(
                plan.expr, ctx, "'/' requires a node as the context item", "XPDY0002"
            )
        current = [ctx.item.root()]
        if plan.anchor == "//":
            return expand_descendants(current, True, True), True, False
        return current, True, True
    if plan.base is None:
        return [ctx.item], True, True
    current = execute_plan(plan.base, ctx, bindings, state)
    if len(current) <= 1:
        return current, True, True
    return current, False, False


def _pred_filter(step: StepPlan, bindings, state):
    """The step's compiled predicates as ``run_path_step``'s filter."""
    predicates = step.predicates
    if not predicates:
        return None
    return lambda items, ctx: _apply_pred_plans(items, predicates, ctx, bindings, state)


def _run_steps(current, ordered, non_nested, steps, ctx, bindings, state):
    for step in steps:
        current, ordered, non_nested = run_path_step(
            step, current, ordered, non_nested, ctx, _pred_filter(step, bindings, state)
        )
    return current, ordered, non_nested


def _exec_path(plan: PathPlan, ctx, bindings, state):
    current, ordered, non_nested = _path_base(plan, ctx, bindings, state)
    if not plan.steps:
        return current
    if plan.cacheable:
        local_key = (id(plan), tuple(map(id, current)))
        cached = state.scans.get(local_key)
        if cached is not None:
            return cached
        shared = state.shared
        if shared is not None:
            shared_key = ("scan", plan.scan_key, local_key[1])
            value = shared.get(shared_key)
            if value is not None:
                state.scans[local_key] = value
                return value
        result, _, _ = _run_steps(
            current, ordered, non_nested, plan.steps, ctx, bindings, state
        )
        if shared is not None:
            shared.put(shared_key, result)
        state.scans[local_key] = result
        return result
    result, _, _ = _run_steps(current, ordered, non_nested, plan.steps, ctx, bindings, state)
    return result


def _exec_filter(plan: FilterPlan, ctx, bindings, state):
    items = execute_plan(plan.base, ctx, bindings, state)
    return _apply_pred_plans(items, plan.predicates, ctx, bindings, state)


# -- FLWOR -------------------------------------------------------------------


def _exec_flwor(plan: FLWORPlan, ctx, bindings, state):
    def run(part):
        # the part on one tuple's bindings (dispatched here: no execute_plan frame)
        executor = _EXEC[type(part)]
        return lambda tuple_bindings: executor(part, ctx, tuple_bindings, state)

    clauses = []
    for op in plan.ops:
        if isinstance(op, ForJoinOp):
            clauses.append(("for", op.var, op.position_var, _join_source(op, ctx, state)))
        elif isinstance(op, ForOp):
            source = _invariant(run(op.source)) if op.invariant else run(op.source)
            clauses.append(("for", op.var, op.position_var, source))
        elif isinstance(op, LetOp):
            clauses.append(("let", op.var, op.declared_type, run(op.value)))
        elif isinstance(op, WhereOp):
            clauses.append(("where", _where_test(op, ctx, state)))
        else:
            specs = tuple((run(key), descending, least) for key, descending, least in op.specs)
            clauses.append(("order", specs))
    return run_flwor(plan.expr, clauses, run(plan.result), bindings, False, ctx)


def _invariant(source):
    """*source* evaluated once per FLWOR execution, at its first tuple."""
    memo: list = []

    def once(tuple_bindings):
        if not memo:
            memo.append(source(tuple_bindings))
        return memo[0]

    return once


def _where_test(op: WhereOp, ctx, state):
    condition, condition_expr = op.condition, op.condition_expr
    return lambda tuple_bindings: ebv(
        execute_plan(condition, ctx, tuple_bindings, state), condition_expr, ctx
    )


# -- hash joins --------------------------------------------------------------


class _JoinBuild:
    """The build side of one hash join: per-context-node candidate groups.

    Groups stay separate because predicates (including any residuals) apply
    per context node with per-node positions, exactly as the reference
    evaluator's `_eval_axis_step` does; ``ordered`` records whether the
    concatenation of the groups is already sorted and duplicate-free.
    """

    __slots__ = ("groups", "ordered", "total", "_indexes")

    def __init__(self, groups, ordered: bool):
        self.groups = groups
        self.ordered = ordered
        self.total = sum(len(group) for group in groups)
        self._indexes: Dict[str, tuple] = {}

    def index_on(self, attr: str):
        """Per-group value -> items maps, plus multi/any attribute flags."""
        cached = self._indexes.get(attr)
        if cached is not None:
            return cached
        keymaps = []
        any_attr = False
        any_multi = False
        for group in self.groups:
            keymap: Dict[str, list] = {}
            for item in group:
                matches = item.attributes_by_name(attr)
                if matches:
                    any_attr = True
                    if len(matches) > 1:
                        any_multi = True
                    for attribute in matches:
                        keymap.setdefault(attribute.value, []).append(item)
            keymaps.append(keymap)
        built = (keymaps, any_attr, any_multi)
        self._indexes[attr] = built
        return built


def _join_build(op: ForJoinOp, ctx, tuple_bindings, state) -> _JoinBuild:
    scan = op.scan
    base = None
    if op.base_var is not None:
        # root($var) over a singleton element binding: fn:root is pure per
        # node, so the per-tuple base resolution collapses to a memo probe.
        value = tuple_bindings.get(op.base_var)
        if (
            isinstance(value, list)
            and len(value) == 1
            and isinstance(value[0], ElementNode)
        ):
            node = value[0]
            memo = state.roots.get(id(node))
            if memo is not None and memo[0] is node:
                base = memo[1]
            else:
                base = [node.root()]
                state.roots[id(node)] = (node, base)
    if base is not None:
        ordered = non_nested = True
    else:
        base, ordered, non_nested = _path_base(scan, ctx, tuple_bindings, state)
    key = (id(op), tuple(map(id, base)))
    build = state.join_builds.get(key)
    if build is not None:
        return build
    shared = state.shared
    shared_key = None
    if shared is not None and scan.cacheable:
        shared_key = ("join", scan.scan_key, op.build_attr, key[1])
        cached = shared.get(shared_key)
        if cached is not None:
            state.join_builds[key] = cached
            return cached
    current, ordered, non_nested = _run_steps(
        base, ordered, non_nested, scan.steps[:-1], ctx, tuple_bindings, state
    )
    # the last step's groups stay apart; its predicates are closed.
    last = scan.steps[-1]
    groups: list = []
    _, ordered, _ = run_path_step(
        last, current, ordered, non_nested, ctx, _pred_filter(last, {}, state), groups
    )
    build = _JoinBuild(groups, ordered)
    state.join_builds[key] = build
    if shared_key is not None:
        shared.put(shared_key, build)
    return build


def _join_source(op: ForJoinOp, ctx, state):
    """A join's ``for`` source: each tuple's matches from the hash build."""
    # Resolve residual memoability once per op, so the per-tuple probe can
    # answer a repeated single-key probe with one dict hit instead of
    # re-entering _probe_join (which re-derives it).
    shape = op.probe_shape
    memoable = shape is not None and not any(
        type(pred) is GenericPred for pred in op.residual
    )
    probes = state.probes
    op_id = id(op)
    # Consecutive tuples almost always bind nodes under the same document
    # root, so a root($var) build resolution collapses to one memo probe
    # and an id compare against the previous tuple's root.
    base_var = op.base_var
    roots = state.roots
    builds = state.join_builds
    last_root_id = None
    last_build = None

    def matches_of(tuple_bindings):
        nonlocal last_root_id, last_build
        build = None
        if base_var is not None:
            value = tuple_bindings.get(base_var)
            if (
                isinstance(value, list)
                and len(value) == 1
                and isinstance(value[0], ElementNode)
            ):
                node = value[0]
                memo = roots.get(id(node))
                if memo is not None and memo[0] is node:
                    root_id = id(memo[1][0])
                else:
                    base = [node.root()]
                    roots[id(node)] = (node, base)
                    root_id = id(base[0])
                if root_id == last_root_id:
                    build = last_build
                else:
                    build = builds.get((op_id, (root_id,)))
                    if build is not None:
                        last_root_id, last_build = root_id, build
        if build is None:
            build = _join_build(op, ctx, tuple_bindings, state)
            if base_var is not None:
                last_root_id, last_build = None, None
        if memoable:
            value = tuple_bindings.get(shape[0])
            if (
                isinstance(value, list)
                and len(value) == 1
                and isinstance(value[0], ElementNode)
            ):
                attributes = value[0].attributes_by_name(shape[1])
                if len(attributes) == 1:
                    matches = probes.get((op_id, id(build), attributes[0].value))
                    if matches is not None:
                        return matches
        return _probe_join(op, build, ctx, tuple_bindings, state)

    return matches_of


def _probe_join(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings, state):
    if build.total == 0:
        # the reference never evaluates the probe when there is nothing to
        # compare it against, so neither may we.
        return []
    keys = None
    if op.probe_shape is not None:
        # a tuple variable holding one element: read the attribute directly
        # (the untyped-atomic values the evaluator's attribute step would
        # atomize to, minus the wrapper objects) instead of paying a context
        # clone + path walk + document-order sort per tuple.
        var_name, attr_name = op.probe_shape
        value = tuple_bindings.get(var_name)
        if (
            isinstance(value, list)
            and len(value) == 1
            and isinstance(value[0], ElementNode)
        ):
            keys = [
                attribute.value
                for attribute in value[0].attributes_by_name(attr_name)
            ]
    hashable = True
    if keys is None:
        scope = ctx.with_variables(tuple_bindings) if tuple_bindings else ctx
        probe_atoms = atomize(state.thunk(op.probe_expr)(scope))
        keys = []
        for atom in probe_atoms:
            if isinstance(atom, str):
                keys.append(atom)
            elif isinstance(atom, UntypedAtomic):
                keys.append(atom.value)
            else:
                # numeric/boolean probes promote differently; fall back to
                # the reference comparison per candidate item.
                hashable = False
                break
    keymaps, any_attr, any_multi = build.index_on(op.build_attr)
    if hashable and op.style == "value":
        if not keys:
            return []
        if len(keys) > 1:
            # raises only if some candidate has a matching attribute — an
            # attribute-less item yields an empty left operand and is
            # silently dropped before the singleton check.
            if any_attr:
                raise _error(
                    op.join_expr,
                    ctx,
                    f"value comparison '{op.join_expr.op}' requires "
                    "singleton operands",
                    "XPTY0004",
                )
            return []
        if any_multi:
            # some candidate carries duplicate attributes (keep-mode): the
            # reference raises when its predicate reaches that item.
            return _probe_join_generic(op, build, ctx, tuple_bindings, state)
    if not hashable:
        return _probe_join_generic(op, build, ctx, tuple_bindings, state)
    memo_key = None
    if len(keys) == 1 and not any(
        type(pred) is GenericPred for pred in op.residual
    ):
        # single-key probes repeat whenever tuples share a join partner;
        # with a tuple-independent residual the match list is a pure
        # function of (op, build, key), so replay it from the memo.
        memo_key = (id(op), id(build), keys[0])
        memo = state.probes.get(memo_key)
        if memo is not None:
            return memo
    results: list = []
    attr = op.build_attr
    key_set = frozenset(keys)
    for group_index, keymap in enumerate(keymaps):
        if len(keys) == 1:
            # hash hit lists preserve candidate order within the group.
            matched = keymap.get(keys[0], [])
        elif keys:
            # multi-key probes walk the group so matches keep candidate
            # order (the existential `=` sweep, set-at-a-time).
            matched = [
                item
                for item in build.groups[group_index]
                if any(a.value in key_set for a in item.attributes_by_name(attr))
            ]
        else:
            matched = []
        if matched and op.residual:
            matched = _apply_pred_plans(matched, op.residual, ctx, tuple_bindings, state)
        results.extend(matched)
    if not build.ordered:
        results = sort_document_order(results)
    if memo_key is not None:
        state.probes[memo_key] = results
    return results


def _probe_join_generic(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings, state):
    """Per-item fallback: evaluate the join predicate as the reference does."""
    predicates = [GenericPred(op.join_expr)] + list(op.residual)
    results: list = []
    for group in build.groups:
        results.extend(_apply_pred_plans(group, predicates, ctx, tuple_bindings, state))
    if build.ordered:
        return results
    return sort_document_order(results)


_EXEC = {
    EvalPlan: _exec_eval,
    LiteralPlan: _exec_literal,
    VarPlan: _exec_var,
    SequencePlan: _exec_sequence,
    StringFnPlan: _exec_string_fn,
    BuiltinCallPlan: _exec_builtin_call,
    FullTextScanPlan: _exec_full_text_scan,
    SetOpPlan: _exec_set_op,
    InlineCallPlan: _exec_inline_call,
    PathPlan: _exec_path,
    FilterPlan: _exec_filter,
    FLWORPlan: _exec_flwor,
}
