"""Model partitioning and query routing for the shared-nothing serving tier.

The tier partitions the *start space* of the calculus: every model node has
exactly one owning shard, and a worker process answers a query only for the
start nodes it owns.  Because every pipeline step maps each node
independently of its siblings (``follow`` distributes over union, filters
are per-node, and ``collect`` is a dedup+sort that merges), evaluating the
full pipeline per-shard and merging the partials is *exactly* the
single-process result — the algebraic property the scatter/gather layer
leans on, and the one the parity property suite pins.

Nodes are owned by the shard of their metamodel class
(``crc32(type_name) % shards``), so a start-by-type query whose subtype
closure lands on one shard gets the single-shard fast path, and a worker's
start partition is the list of present type names it owns (see
:func:`owned_types`).

The hash is CRC32, not Python's ``hash()``: worker processes must agree on
ownership with the front-end across interpreter boundaries, and ``str``
hashing is salted per process.

Routing consults the optimizer's statistics catalog: the export walk
records the small value domain of ``node/@type``, which is precisely the
evidence needed to *prove* a start set touches one partition (see
:func:`route_query`).

The search tier partitions documents with the same hash:
``bucket(uri, shards)`` owns each document, so a uri-addressed ``fn:doc``
request is provably single-shard and everything else scatters (see
:func:`route_request`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from ..querycalc.ast import Query

__all__ = ["Route", "bucket", "owned_types", "route_query", "route_request"]


def bucket(value: str, shards: int) -> int:
    """A process-independent stable bucket for a string key."""
    return zlib.crc32(value.encode("utf-8")) % shards


def owned_types(shard: int, shards: int, type_names: Iterable[str]) -> List[str]:
    """The present type names worker *shard* owns: the values it binds to
    the sharded plan's start filter.

    Computed worker-side at startup/refresh from the worker's own replica,
    so the front-end never ships ownership lists over the wire.
    """
    return sorted(name for name in set(type_names) if bucket(name, shards) == shard)


@dataclass
class Route:
    """Where one query executes: one worker's full replica, or everywhere.

    ``kind`` is ``"single"`` (the named worker evaluates the *unsharded*
    plan over its full replica — exact single-process semantics) or
    ``"scatter"`` (every worker evaluates the sharded plan over its own
    start partition and the front-end merges the partials).  ``reason`` is
    the routing proof, surfaced through metrics and ``explain``.
    """

    kind: str  # "single" | "scatter"
    shard: Optional[int] = None
    reason: str = ""


def route_query(
    query: Query,
    shards: int,
    present_types: Optional[FrozenSet[str]],
    subtype_names,
    owner_of_id=None,
) -> Route:
    """Decide the execution route for one calculus query.

    ``present_types`` is the set of node type names that actually occur in
    the current export — taken from the statistics catalog's
    ``node/@type`` value domain when the export walk captured it (the
    catalog caps recorded domains, so a very type-diverse model yields
    ``None`` and the router conservatively scatters).  ``subtype_names``
    maps a type name to its subtype closure (the metamodel's view);
    ``owner_of_id`` maps a node id to its owning shard (``None`` when
    unknown).

    The fast path triggers only on *proof*: every start node the query can
    possibly select is owned by one shard.  Anything unprovable scatters,
    which is always correct — merely wider.
    """
    if shards == 1:
        return Route("single", 0, "one-shard-tier")
    if query.trace is not None:
        # fn:trace emits one message for the whole collected sequence; a
        # scatter would emit one partial message per shard.  Traced queries
        # are diagnostics, so they take a single full-replica evaluation.
        return Route("single", bucket(query.trace, shards), "traced-query")
    start = query.start
    if start.node_id is not None:
        if owner_of_id is not None:
            shard = owner_of_id(start.node_id)
            if shard is not None:
                return Route("single", shard, "start-id-owner")
        return Route("scatter", None, "start-id-unmapped")
    if start.all_nodes:
        return Route("scatter", None, "start-all-nodes")
    names = set(subtype_names(start.type))
    if present_types is not None:
        names &= present_types
    if not names:
        # provably empty start set: any single worker returns () —
        # cheapest possible proof, no scatter needed.
        return Route("single", 0, "start-type-absent")
    owners = {bucket(name, shards) for name in names}
    if len(owners) == 1:
        return Route("single", owners.pop(), "start-type-single-shard")
    return Route("scatter", None, "start-type-spans-shards")


def route_request(request, shards: int) -> Route:
    """Route one :class:`~repro.collections.service.SearchRequest`.

    ``doc`` requests go to the uri's owner; everything else touches an
    unknowable subset of a collection's members and scatters, with the
    front-end merging the partials by ``(score desc, uri)``.
    """
    if shards <= 1:
        return Route("single", 0, "one-shard-tier")
    if request.kind == "doc":
        return Route(
            "single",
            bucket(request.uri, shards),
            f"doc-uri-owner crc32({request.uri!r}) % {shards}",
        )
    return Route(
        "scatter", None, f"{request.kind}-over-collection {request.collection!r}"
    )
