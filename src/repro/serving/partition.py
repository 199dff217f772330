"""Model partitioning and query routing for the shared-nothing serving tier.

The tier partitions the *start space* of the calculus: every model node has
exactly one owning shard, and a worker process answers a query only for the
start nodes it owns.  Because every pipeline step maps each node
independently of its siblings (``follow`` distributes over union, filters
are per-node, and ``collect`` is a dedup+sort that merges), evaluating the
full pipeline per-shard and merging the partials is *exactly* the
single-process result — the algebraic property the scatter/gather layer
leans on, and the one the parity property suite pins.

Two partitioning schemes, straight from the issue:

``type``
    nodes are owned by the shard of their metamodel class
    (``crc32(type_name) % shards``).  Start-by-type queries whose subtype
    closure lands on one shard get the single-shard fast path.
``hash``
    nodes are owned by ``crc32(node_id) % shards``.  Start-by-id queries
    always route to exactly one shard.

Hashes are CRC32, not Python's ``hash()``: worker processes must agree on
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
from typing import FrozenSet, Iterable, List, Optional, Sequence

from ..querycalc.ast import Query

__all__ = [
    "PARTITION_SCHEMES",
    "Partitioner",
    "Route",
    "bucket",
    "route_query",
    "route_request",
]

#: the partitioning schemes the tier supports.
PARTITION_SCHEMES = ("type", "hash")

#: the external variable the sharded plan filters its start set with.
SHARD_VARIABLE = {"type": "awb-shard-types", "hash": "awb-shard-ids"}


def bucket(value: str, shards: int) -> int:
    """A process-independent stable bucket for a string key."""
    return zlib.crc32(value.encode("utf-8")) % shards


class Partitioner:
    """Assigns every model node to exactly one of ``shards`` partitions."""

    def __init__(self, scheme: str = "type", shards: int = 2):
        if scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"partition scheme must be one of {PARTITION_SCHEMES}, not {scheme!r}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, not {shards}")
        self.scheme = scheme
        self.shards = shards

    def shard_of(self, node_id: str, type_name: str) -> int:
        """The shard owning a node, given both identifying facts."""
        if self.scheme == "type":
            return bucket(type_name, self.shards)
        return bucket(node_id, self.shards)

    def shard_of_type(self, type_name: str) -> int:
        return bucket(type_name, self.shards)

    def shard_of_id(self, node_id: str) -> int:
        return bucket(node_id, self.shards)

    def shards_of_types(self, type_names: Iterable[str]) -> FrozenSet[int]:
        """The set of shards owning any of the given node types."""
        return frozenset(bucket(name, self.shards) for name in type_names)

    def shard_variable(self) -> str:
        """The external variable name the sharded plan's start filter reads."""
        return SHARD_VARIABLE[self.scheme]

    def owned_values(
        self, shard: int, node_ids: Sequence[str], type_names: Sequence[str]
    ) -> List[str]:
        """The values worker ``shard`` binds to its shard variable.

        Under ``type`` partitioning these are the *present* type names the
        shard owns; under ``hash`` partitioning the node ids.  Computed
        worker-side at startup/refresh from the worker's own replica, so
        the front-end never ships ownership lists over the wire.
        """
        if self.scheme == "type":
            return sorted(
                name for name in set(type_names) if bucket(name, self.shards) == shard
            )
        return [nid for nid in node_ids if bucket(nid, self.shards) == shard]

    def describe(self) -> dict:
        return {"scheme": self.scheme, "shards": self.shards}


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
    partitioner: Partitioner,
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
    ``owner_of_id`` maps a node id to its owning shard under ``hash``
    partitioning (``None`` when unknown).

    The fast path triggers only on *proof*: every start node the query can
    possibly select is owned by one shard.  Anything unprovable scatters,
    which is always correct — merely wider.
    """
    if partitioner.shards == 1:
        return Route("single", 0, "one-shard-tier")
    if query.trace is not None:
        # fn:trace emits one message for the whole collected sequence; a
        # scatter would emit one partial message per shard.  Traced queries
        # are diagnostics, so they take a single full-replica evaluation.
        shard = bucket(query.trace, partitioner.shards)
        return Route("single", shard, "traced-query")
    start = query.start
    if start.node_id is not None:
        if partitioner.scheme == "hash":
            return Route(
                "single", partitioner.shard_of_id(start.node_id), "start-id-owner"
            )
        if owner_of_id is not None:
            shard = owner_of_id(start.node_id)
            if shard is not None:
                return Route("single", shard, "start-id-owner")
        return Route("scatter", None, "start-id-unmapped")
    if start.all_nodes:
        return Route("scatter", None, "start-all-nodes")
    if partitioner.scheme == "type" and start.type is not None:
        names = set(subtype_names(start.type))
        if present_types is not None:
            names &= present_types
        if not names:
            # provably empty start set: any single worker returns () —
            # cheapest possible proof, no scatter needed.
            return Route("single", 0, "start-type-absent")
        shards = partitioner.shards_of_types(names)
        if len(shards) == 1:
            return Route("single", next(iter(shards)), "start-type-single-shard")
        return Route("scatter", None, "start-type-spans-shards")
    return Route("scatter", None, "start-type-hash-partitioned")


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
