"""Request routing for the serving tiers.

Both tiers send each request, whole, to one worker, by one rule.  Every
worker holds a full replica: the calculus tier's workers the whole model
(the calculus follows relations any number of hops, so a slice would
need every other slice anyway), the search tier's workers the whole
document store (the corpus fits in every worker).  Splitting a request
across workers would buy no data locality, only coordination.
:func:`route_query` sends a request to the worker that owns its key, so
a request rerun because its answer left the result cache lands on the
same worker: a calculus plan finds its scans and join builds in that
worker's shared-scan cache for the export generation.  That worker's
answer is exact single-process semantics.

The hash is CRC32, not Python's ``hash()``: worker processes must agree
on ownership with the front-end across interpreter boundaries, and
``str`` hashing is salted per process.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["Route", "bucket", "route_query"]


def bucket(value: str, shards: int) -> int:
    """A process-independent stable bucket for a string key."""
    return zlib.crc32(value.encode("utf-8")) % shards


@dataclass
class Route:
    """The one worker a request executes on, and why.

    ``kind`` is always ``"single"``: the named worker answers the whole
    request.  ``reason`` is surfaced through metrics and ``explain``.
    """

    kind: str
    shard: Optional[int] = None
    reason: str = ""


def route_query(key: str, shards: int) -> Route:
    """Route one request, by its normalized *key* (a calculus plan key or
    a search request key), to the one worker that evaluates it over its
    full replica.  Owning requests by key is for locality: a rerun within
    one generation finds the plan's scans and join builds in that
    worker's cache."""
    return Route("single", bucket(key, shards), f"plan-key-owner crc32(key) % {shards}")
