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
  hash table built once per distinct base instead of rescanning per tuple.
  The hash answers one string-like key over a build that carries the
  attribute at most once per candidate; every other probe runs the join
  predicate through the one predicate rule, so the join holds no copy of
  the comparison's semantics;
* **memoization** — loop-invariant sources are computed once per FLWOR,
  and closed scans and join builds once per base, in one memo
  (``ExecState.memo``: the caller's shared :class:`~repro.lru.LRU`, so
  queries over one export generation share them, or one for the run),
  keyed on the base nodes themselves, so a constructed node freed during
  a run cannot pass its id, and its memo entry, to a later node.

A FLWOR's tuple stream runs through the closure compiler's
:func:`~repro.xquery.compiler.run_flwor`, the one FLWOR rule both fast
engines share; the executor passes ``execute_plan`` with explicit bindings
and its own ``for`` sources (the invariant-source memo and the hash-join
probe).  Every predicate (a step's, a ``Select``'s, a join residual) runs
through the one predicate rule, :func:`~repro.xquery.compiler.run_predicates`,
with the tuple's bindings and ``AlgebraProgram.thunk`` for closures.  A
scan and a join build start through the one path rule,
:func:`~repro.xquery.compiler.start_path`, and run their steps through
:func:`~repro.xquery.compiler.run_steps`; the executor adds only its
memos around them.  An inlined call enters through the one call rule,
:func:`~repro.xquery.compiler.call_user_function`, with its plans as the
argument and body runners and no type checks (lowering inlines only
signatures that need none).

Anything the lowering could not prove safe sits in an ``EvalPlan`` leaf and
runs on the program's closure compiler with the exact same dynamic context.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from ...lru import LRU
from ...xdm import (
    ElementNode,
    Node,
    UntypedAtomic,
    atomize,
    is_node,
    sort_document_order,
)
from ..compiler import (
    GenericPred,
    call_user_function,
    run_flwor,
    run_path_step,
    run_predicates,
    run_steps,
    start_path,
)
from ..context import DynamicContext
from ..evaluator import _error, ebv, undefined_variable
from ..errors import XQueryTypeError
from .plans import (
    BuiltinCallPlan,
    EvalPlan,
    FilterPlan,
    FLWORPlan,
    ForJoinOp,
    ForOp,
    FullTextScanPlan,
    InlineCallPlan,
    LetOp,
    LiteralPlan,
    PathPlan,
    Plan,
    SequencePlan,
    SetOpPlan,
    StringFnPlan,
    VarPlan,
    WhereOp,
)

__all__ = ["ExecState", "execute_plan"]

_MISSING = object()

class ExecState:
    """Per-run executor state: fallback closures and memos.

    Every memo keyed on nodes holds the nodes themselves, not their ids:
    an entry pins what it was computed for, so a node built and freed
    during the run cannot hand its id, and its entry, to a later node.
    """

    __slots__ = ("thunk", "memo", "roots", "probes")

    def __init__(self, thunk, shared: Optional[LRU] = None):
        #: ``AlgebraProgram.thunk``: AST expression -> its compiled closure.
        self.thunk = thunk
        #: the one scan and join-build memo, keyed ``("scan" | "join",
        #: scan_key, base nodes)`` for a closed, pure scan: the caller's
        #: shared cache when it passes one (a shard worker keeps one per
        #: export generation, so queries sharing a subplan over one document
        #: share the work), else one for this run.
        self.memo = shared if shared is not None else LRU(None)
        #: node -> [fn:root(node)]: fn:root is pure per node, and join
        #: scans anchored on root($n) re-resolve it once per tuple.
        self.roots: Dict[Node, list] = {}
        #: (op, build, probe key) -> match list, for single-key probes
        #: whose residual reads only the candidate (``ForJoinOp.memoable``).
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


def _exec_builtin_call(plan: BuiltinCallPlan, ctx, bindings, state):
    # args in order, then the builtin with the evaluator's exact calling
    # convention; the builtin reads focus/trace/config from ctx itself.
    # ``StringFnPlan`` and ``FullTextScanPlan`` run here too: they differ
    # only in what explain shows and estimates.
    args = [execute_plan(arg, ctx, bindings, state) for arg in plan.args]
    if plan.name == "root" and len(args) == 1 and len(args[0]) == 1 and is_node(args[0][0]):
        return list(_root_of(args[0][0], state))
    return plan.builtin(ctx, args, plan.expr)


def _root_of(node, state) -> list:
    """``[fn:root(node)]``, memoized for the run."""
    root = state.roots.get(node)
    if root is None:
        root = state.roots[node] = [node.root()]
    return root


def _one_element(value) -> Optional[ElementNode]:
    """The element a tuple binding holds, when it holds exactly one."""
    if isinstance(value, list) and len(value) == 1 and isinstance(value[0], ElementNode):
        return value[0]
    return None


def _exec_set_op(plan: SetOpPlan, ctx, bindings, state):
    from ..operators import set_operation

    left = execute_plan(plan.left, ctx, bindings, state)
    right = execute_plan(plan.right, ctx, bindings, state)
    try:
        return set_operation(plan.op, left, right)
    except XQueryTypeError as exc:
        raise _error(plan.expr, ctx, exc.bare_message, exc.code) from exc


def _exec_inline_call(plan: InlineCallPlan, ctx, bindings, state):
    # lowering inlines only calls whose signature needs no type check
    body = partial(_run, plan.body, {}, state)
    return call_user_function(
        plan.expr,
        plan.declaration,
        [partial(_run, arg, bindings, state) for arg in plan.args],
        lambda: body,
        False,
        ctx,
    )


def _run(plan: Plan, bindings, state, ctx):
    """*plan* on *ctx*: a plan as a callable on the context."""
    return _EXEC[type(plan)](plan, ctx, bindings, state)


# -- paths -------------------------------------------------------------------


def _start(plan: PathPlan, ctx, bindings, state):
    """The path's ``start_path``, with its lead run as a plan."""
    lead = None if plan.base is None else execute_plan(plan.base, ctx, bindings, state)
    return start_path(plan.expr, lead, ctx)


def _exec_path(plan: PathPlan, ctx, bindings, state):
    start = _start(plan, ctx, bindings, state)
    if not plan.cacheable:
        return run_steps(plan.steps, state.thunk, bindings, start, ctx)[0]
    return state.memo.get_or_build(
        ("scan", plan.scan_key, tuple(start[0])),
        lambda: run_steps(plan.steps, state.thunk, bindings, start, ctx)[0],
    )


def _exec_filter(plan: FilterPlan, ctx, bindings, state):
    items = execute_plan(plan.base, ctx, bindings, state)
    return run_predicates(plan.predicates, state.thunk, bindings, items, ctx)


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
        self._indexes: Dict[str, Optional[list]] = {}

    def index_on(self, attr: str) -> Optional[list]:
        """Per-group value -> items maps, or None when some candidate
        carries *attr* twice (keep-mode), which the hash cannot answer."""
        if attr not in self._indexes:
            self._indexes[attr] = _index(self.groups, attr)
        return self._indexes[attr]


def _index(groups, attr: str) -> Optional[list]:
    keymaps = []
    for group in groups:
        keymap: Dict[str, list] = {}
        for item in group:
            matches = item.attributes_by_name(attr)
            if len(matches) > 1:
                return None
            if matches:
                keymap.setdefault(matches[0].value, []).append(item)
        keymaps.append(keymap)
    return keymaps


def _join_build(op: ForJoinOp, start, ctx, state) -> _JoinBuild:
    """The build for the scan's base *start*, from the one scan and build memo."""
    scan = op.scan

    def build():
        # every build step is closed: no tuple variable reaches it
        current, ordered, non_nested = run_steps(scan.steps[:-1], state.thunk, {}, start, ctx)
        # the last step's groups stay apart
        groups: list = []
        _, ordered, _ = run_path_step(
            scan.steps[-1], state.thunk, {}, current, ordered, non_nested, ctx, groups
        )
        return _JoinBuild(groups, ordered)

    return state.memo.get_or_build(("join", scan.scan_key, tuple(start[0])), build)


def _join_source(op: ForJoinOp, ctx, state):
    """A join's ``for`` source: each tuple's matches from the hash build."""
    # Consecutive tuples almost always bind nodes under the same document
    # root, so a root($var) base resolves to one memo probe and an identity
    # compare against the previous tuple's root.
    base_var = op.base_var
    last_root = None
    last_build = None

    def matches_of(tuple_bindings):
        nonlocal last_root, last_build
        element = None if base_var is None else _one_element(tuple_bindings.get(base_var))
        if element is None:
            build = _join_build(op, _start(op.scan, ctx, tuple_bindings, state), ctx, state)
        else:
            root = _root_of(element, state)
            if root[0] is not last_root:
                last_root, last_build = root[0], _join_build(op, (root, True, True), ctx, state)
            build = last_build
        return _probe_join(op, build, ctx, tuple_bindings, state)

    return matches_of


def _probe_join(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings, state):
    """The tuple's matches: one string-like key over a build that carries
    the attribute at most once per candidate is a hash lookup; every other
    probe runs the join predicate through the predicate rule."""
    if build.total == 0:
        # the reference never evaluates the probe when there is nothing to
        # compare it against, so neither may we.
        return []
    keys = None
    if op.probe_shape is not None:
        # a tuple variable holding one element: read the attribute directly
        # instead of paying a context clone + path walk per tuple.
        var_name, attr_name = op.probe_shape
        element = _one_element(tuple_bindings.get(var_name))
        if element is not None:
            keys = [attribute.value for attribute in element.attributes_by_name(attr_name)]
    if keys is None:
        scope = ctx.with_variables(tuple_bindings) if tuple_bindings else ctx
        keys = atomize(state.thunk(op.probe_expr)(scope))
    if not keys:
        return []
    key = keys[0]
    if isinstance(key, UntypedAtomic):
        key = key.value
    keymaps = None
    if len(keys) == 1 and isinstance(key, str):
        keymaps = build.index_on(op.build_attr)
    if keymaps is None:
        # several keys, a key that promotes differently, or a candidate
        # repeating the attribute: the predicate rule decides
        return _probe_join_generic(op, build, ctx, tuple_bindings, state)
    if op.memoable:
        # with a candidate-only residual the match list is a pure
        # function of (op, build, key); the key holds the build itself.
        memo_key = (op, build, key)
        matches = state.probes.get(memo_key)
        if matches is not None:
            return matches
    results: list = []
    for keymap in keymaps:
        # hash hit lists preserve candidate order within the group.
        matched = keymap.get(key)
        if matched and op.residual:
            matched = run_predicates(op.residual, state.thunk, tuple_bindings, matched, ctx)
        if matched:
            results.extend(matched)
    if not build.ordered:
        results = sort_document_order(results)
    if op.memoable:
        state.probes[memo_key] = results
    return results


def _probe_join_generic(op: ForJoinOp, build: _JoinBuild, ctx, tuple_bindings, state):
    """Per-item fallback: evaluate the join predicate as the reference does."""
    predicates = [GenericPred(op.join_expr)] + list(op.residual)
    results: list = []
    for group in build.groups:
        results.extend(run_predicates(predicates, state.thunk, tuple_bindings, group, ctx))
    if build.ordered:
        return results
    return sort_document_order(results)


_EXEC = {
    EvalPlan: _exec_eval,
    LiteralPlan: _exec_literal,
    VarPlan: _exec_var,
    SequencePlan: _exec_sequence,
    StringFnPlan: _exec_builtin_call,
    BuiltinCallPlan: _exec_builtin_call,
    FullTextScanPlan: _exec_builtin_call,
    SetOpPlan: _exec_set_op,
    InlineCallPlan: _exec_inline_call,
    PathPlan: _exec_path,
    FilterPlan: _exec_filter,
    FLWORPlan: _exec_flwor,
}
