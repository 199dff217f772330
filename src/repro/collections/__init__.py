"""Multi-document collections with full-text search.

The paper's engine queries exactly one exported AWB document; this package
is the repository's next scenario class — a persisted store of *many*
documents (AWB exports plus generated XDM documents), addressable from
queries through ``fn:doc($uri)`` / ``fn:collection($uri)``, with an
inverted full-text index behind ``ft:search`` / ``ft:score`` / ``ft:kwic``
builtins modeled on eXist-db's keyword-search-with-KWIC idiom.

Layout:

* :mod:`.fulltext` — unicode tokenizer, positional inverted index with
  incremental maintenance, and the brute-force phrase scan the index is
  differentially pinned against;
* :mod:`.kwic` — keyword-in-context snippet extraction;
* :mod:`.store` — :class:`DocumentStore`: the persisted uri → document
  map with per-collection generations and index maintenance hooked into
  the update pipeline;
* :mod:`.service` — :class:`SearchService`: the request-level front-end
  with a result cache keyed on collection generation and one worker per
  read: in thread mode one in-process worker over the live store, in
  process mode worker processes that every write is fanned out to;
* :mod:`.worker` — the worker: where a request program compiles, runs
  and serializes, in both modes.

The read loop, mode rule and closed rule live in the front end both tiers
extend, :class:`repro.serving.frontend.FrontEnd`.  Thread mode runs one
in-process worker over the authoritative store, with no pool.  Process
mode runs the workers in one :class:`repro.serving.pool.ProcessPool`
(boot, read, write broadcast, stats, close): every worker holds the
whole store, a read routes whole to one worker through
:func:`repro.serving.partition.route_query`, and workers run behind
:class:`repro.serving.pool.WorkerHandle` (respawn) in
:func:`repro.serving.worker.worker_main` (the request loop).
"""

from __future__ import annotations

from .fulltext import InvertedIndex, count_phrase, tokenize
from .kwic import kwic_snippets
from .service import SearchRequest, SearchService
from .store import DocumentStore, validate_uri

__all__ = [
    "DocumentStore",
    "validate_uri",
    "InvertedIndex",
    "SearchRequest",
    "SearchService",
    "count_phrase",
    "kwic_snippets",
    "tokenize",
]
