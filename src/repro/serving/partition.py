"""Request routing for the serving tiers.

The calculus tier sends each query, whole, to one worker.  Every worker
holds the full model replica (the calculus follows relations any number
of hops, so a slice would need every other slice anyway), so splitting a
query's start set across workers would buy no data locality, only
coordination.  :func:`route_query` sends a plan to the worker that owns
its plan key, so a plan rerun because its answer left the result cache
lands on the worker whose shared-scan cache for the export generation
already holds its scans and join builds.  That worker's answer is exact
single-process semantics.

The hash is CRC32, not Python's ``hash()``: worker processes must agree
on ownership with the front-end across interpreter boundaries, and
``str`` hashing is salted per process.

The search tier partitions documents with the same hash:
``bucket(uri, shards)`` owns each document, so a uri-addressed ``fn:doc``
request is provably single-shard and everything else scatters (see
:func:`route_request`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["Route", "bucket", "route_query", "route_request"]


def bucket(value: str, shards: int) -> int:
    """A process-independent stable bucket for a string key."""
    return zlib.crc32(value.encode("utf-8")) % shards


@dataclass
class Route:
    """Where one request executes: one worker, or everywhere.

    ``kind`` is ``"single"`` (the named worker answers the whole request)
    or ``"scatter"`` (every search shard answers over its own documents
    and the front-end merges the partials).  ``reason`` says why,
    surfaced through metrics and ``explain``.
    """

    kind: str  # "single" | "scatter"
    shard: Optional[int] = None
    reason: str = ""


def route_query(key: str, shards: int) -> Route:
    """Route one calculus plan, by its normalized plan *key*, to the one
    worker that evaluates it over its full replica.  Owning plans by key
    is for shared-scan locality: a rerun within one export generation
    finds the plan's scans and join builds in that worker's cache."""
    return Route("single", bucket(key, shards), f"plan-key-owner crc32(key) % {shards}")


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
