"""Plan normalization: the key the calculus service caches plans under.

A *plan* (:class:`~repro.serving.frontend.QueryPlan`, the record both
serving front ends cache) is everything the service needs to execute one
calculus query repeatedly without re-doing per-query work: the generated
XQuery source and the dependency set its cached answers carry.  Compiling
the source is a shard worker's job
(:class:`~repro.serving.worker.ShardWorker`, in both service modes), once
per run: the program is dropped with the run, so the plan (its source)
and the answer are what the service caches.

Plans are keyed by the *normalized query text* — a canonical rendering of
the calculus AST — so two structurally identical queries parsed from
different XML files share one plan; the service's plan cache is a plain
:class:`~repro.lru.LRU` over that key.  Results are keyed by the generated
source: spellings that normalize differently but generate the same
XQuery (``sort_by=None`` and the label property, say) share one cached
answer.
"""

from __future__ import annotations

from ..ast import FilterProperty, FilterType, Follow, Query


def normalize_query(query: Query) -> str:
    """A canonical one-line text form of a calculus query.

    Structurally equal queries normalize identically; the text doubles as
    the plan- and result-cache key and as a human-readable plan name.
    """
    parts = []
    start = query.start
    if start.all_nodes:
        parts.append("start(*)")
    elif start.node_id is not None:
        parts.append(f"start(id={start.node_id!r})")
    else:
        parts.append(f"start(type={start.type!r})")
    for step in query.steps:
        if isinstance(step, Follow):
            target = repr(step.target_type) if step.target_type else "*"
            sub = "sub" if step.include_subrelations else "exact"
            parts.append(
                f"follow({step.relation!r},{step.direction},{target},{sub})"
            )
        elif isinstance(step, FilterType):
            parts.append(f"type({step.type!r})")
        elif isinstance(step, FilterProperty):
            parts.append(f"prop({step.name!r},{step.op},{step.value!r})")
        else:
            raise TypeError(f"unknown step {type(step).__name__}")
    collect = query.collect
    direction = "desc" if collect.descending else "asc"
    distinct = "distinct" if collect.distinct else "all"
    parts.append(f"collect({collect.sort_by!r},{direction},{distinct})")
    if query.trace is not None:
        # a traced query generates different XQuery, so it is a distinct plan
        parts.append(f"trace({query.trace!r})")
    return "|".join(parts)

