"""The four workloads: seeded inputs, set-up, operations and parity gates.

Each workload makes its inputs when it is constructed.  What a workload
is measured against (the calculus model, the document corpus, the warm
sets and the pools of fresh queries and requests) is fixed by
:data:`FIXTURE_SEED`; the run's seed draws the traffic: the order of the
fresh pool, the choice and order of operations, and the writes.  So runs
on different seeds differ in traffic, not in how much work a cycle of the
pool is.

Set-up (timed, and repeated by the runner) builds the system under test
from those inputs and primes its caches.  Operations come from an endless
stream in blocks of fixed composition, so a run's mix does not depend on
how many operations fit in the window.  Writes are drawn when they run,
under one lock, so the k-th write is the same on every run whatever the
interleaving of the clients.

Gates run after the window, outside it, against the reference paths:
``NativeDocumentGenerator``, native ``run_query``, and index-off
``evaluate_fresh``.
"""

from __future__ import annotations

import itertools
import random
import threading
from types import SimpleNamespace
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

#: seeds the working set every run shares (see the module docstring).
FIXTURE_SEED = 2005


class Op(NamedTuple):
    """One operation: ``kind`` is "read" or "write"; ``key`` names it in reports."""

    kind: str
    key: str
    payload: object


class Workload:
    """The interface the runner drives (see the module docstring)."""

    name = ""
    why = ""
    #: closed-loop clients: each sends its next operation when the last returns.
    clients = 2
    #: operations per block of the stream; a run ends on a block boundary.
    block = 20
    #: latency percentiles reported (each has ≥10 samples beyond it in a full run).
    percentiles: Tuple[int, ...] = (50, 90, 99)
    #: end-to-end metrics reported besides the shared ones and error_rate.
    extras: Tuple[str, ...] = ()
    #: keep every (op, output) for the gate.
    keep_outputs = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def inputs(self):
        """Fresh untimed inputs for one set-up (e.g. a model to mutate)."""
        return None

    def setup(self, inputs):
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def execute(self, system, op: Op):
        raise NotImplementedError

    def check(self, system, records) -> List[str]:
        """Mismatches against the reference path, each naming its operation."""
        raise NotImplementedError

    def counters(self, system) -> Dict[str, float]:
        """The program's public counters (the runner takes window deltas)."""
        return {}

    def close(self, system) -> None:
        pass


def shuffled(items: Sequence, seed: int) -> list:
    """``items`` in the order the run's seed draws."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def pool_size(smoke: bool) -> int:
    """Distinct fresh plans or requests a run cycles through.

    Larger than every cache in the program (512 results, 128 plans and
    compiles), so a plan comes round again only after it was evicted: the
    cold path stays cold.  Smaller than a full run, so the memory the
    program keeps per distinct plan stops growing whatever the throughput,
    and ``peak_rss_mb`` does not follow the machine's speed.
    """
    return 400 if smoke else 2000


def _blocks(rng: random.Random, mix: Sequence[str]) -> Iterator[str]:
    """Endless seeded shuffles of ``mix``: a fixed composition per block."""
    while True:
        block = list(mix)
        rng.shuffle(block)
        yield from block


# -- docgen ----------------------------------------------------------------------


class DocGen(Workload):
    name = "docgen"
    why = (
        "The paper's own subsystem: five whole-document XQuery phases, the "
        "XSLT split and serialization; bypasses the query service, serving, "
        "collections and every cache."
    )
    clients = 1
    percentiles = (50, 90)
    keep_outputs = True
    #: per block of 20, cheapest first: 6 lists (~15 ms), 2 small tables
    #: (~25 ms), 5 middle tables (~40 ms), 2 large tables (~75 ms), 4
    #: ToC-heavy (~190 ms), 1 system context (~390 ms).  The nearest ranks of
    #: p50 (10th of 20) and p90 (18th) then fall inside a group of
    #: similar-cost templates, not on the edge between two.
    MIX = (
        ("list",) * 6
        + ("table-small",) * 2
        + ("table-mid",) * 5
        + ("table-large",) * 2
        + ("toc",) * 4
        + ("system",)
    )
    LIST_TYPES = ("User", "Superuser", "Program", "Server", "Document")
    TABLES = {
        "table-small": (("Superuser", "Program", "uses"),),
        "table-mid": (("Server", "Program", "runs"), ("SystemBeingDesigned", "User", "has")),
        "table-large": (("User", "Program", "uses"),),
    }

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        from repro.workloads import make_it_model

        self.model = make_it_model(scale=6)
        self.bytes_copied = 0
        self._sources: Dict[str, str] = {}

    def _template(self, kind: str, rng: random.Random) -> Tuple[str, str]:
        from repro import workloads

        if kind == "list":
            type_name = rng.choice(self.LIST_TYPES)
            key, make = f"list:{type_name}", lambda: workloads.simple_list_template(type_name)
        elif kind in self.TABLES:
            spec = rng.choice(self.TABLES[kind])
            key, make = "table:" + ",".join(spec), lambda: workloads.table_template(*spec)
        elif kind == "toc":
            key, make = "toc:6", lambda: workloads.toc_heavy_template(6)
        else:
            key, make = "system", workloads.system_context_template
        if key not in self._sources:
            self._sources[key] = make()
        return key, self._sources[key]

    def setup(self, inputs):
        from repro.docgen import XQueryDocumentGenerator
        from repro.workloads import simple_list_template

        generator = XQueryDocumentGenerator(self.model)
        # one generation compiles every phase program and exports the model
        generator.generate(simple_list_template("Document"))
        return generator

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed)
        for kind in _blocks(rng, self.MIX):
            key, source = self._template(kind, rng)
            yield Op("read", key, source)

    def execute(self, generator, op: Op):
        from repro.xmlio import serialize

        result = generator.generate(op.payload)
        self.bytes_copied += result.metrics["bytes_copied_total"]
        return serialize(result.document)

    def check(self, generator, records) -> List[str]:
        from repro.docgen import NativeDocumentGenerator
        from repro.xmlio import serialize

        native = NativeDocumentGenerator(self.model)
        expected: Dict[str, str] = {}
        mismatches = []
        for index, op, text in records:
            if op.key not in expected:
                expected[op.key] = serialize(native.generate(op.payload).document)
            if text != expected[op.key]:
                mismatches.append(
                    f"op {index} ({op.key}): output differs from NativeDocumentGenerator"
                )
        return mismatches

    def counters(self, generator) -> Dict[str, float]:
        cache = generator.engine.cache_info()
        return {
            "compile_hits": cache["hits"],
            "compile_misses": cache["misses"],
            "bytes_copied": self.bytes_copied,
        }


# -- the calculus workloads ----------------------------------------------------------

#: nodes in the calculus model: E18's n≈101 (100 plus the system node).
MODEL_SIZE = 100


def calculus_model():
    from repro.testing.models import random_model

    return random_model(FIXTURE_SEED, size=MODEL_SIZE)


def distinct_queries(rng: random.Random, model, count: int, exclude=()) -> list:
    """``count`` seeded calculus queries with pairwise distinct plans, none
    of them among ``exclude``."""
    from repro.querycalc.service.plans import normalize_query
    from repro.testing.models import random_calculus_query

    seen = {normalize_query(query) for query in exclude}
    queries = []
    while len(queries) < count:
        query = random_calculus_query(rng, model)
        key = normalize_query(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def _ids(nodes) -> Tuple[str, ...]:
    return tuple(node.id for node in nodes)


def _query_service_counters(service) -> Dict[str, float]:
    metrics = service.metrics()
    caches = service.cache_stats()
    compile_caches = [caches["compile"]]
    serving = service.serving_stats()
    if serving is not None:
        compile_caches = [worker["compile_cache"] for worker in serving["workers"]]
    export = caches["export"]
    return {
        "compile_hits": sum(cache["hits"] for cache in compile_caches),
        "compile_misses": sum(cache["misses"] for cache in compile_caches),
        "result_hits": metrics["hits"],
        "result_misses": metrics["misses"],
        "plan_hits": metrics["plan_hits"],
        "plan_misses": metrics["plan_misses"],
        "kept": metrics["propagations"]["kept"],
        "patched": metrics["propagations"]["patched"],
        "invalidated": metrics["propagations"]["invalidated"],
        "routes_single": metrics["routes"].get("single", 0),
        "routes_scatter": metrics["routes"].get("scatter", 0),
        "restarts": metrics["serving"]["restarts"] if metrics["serving"] else 0,
        "subtree_exports": export["subtree_exports"],
        "full_exports": export["full_exports"],
        "stats_deltas": export["stats_deltas"],
    }


class CalcCold(Workload):
    name = "calc_cold"
    why = (
        "Distinct calculus plans through the process tier: codegen, worker "
        "compile, algebra execution, pipe round trip and scatter merge on "
        "every op; the result and plan caches are overflowed."
    )
    extras = ("latency_p99_ms", "worker_rss_mb")
    block = 1
    keep_outputs = True
    #: queries that prime the workers before timing; never measured.
    WARMUP = 16

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        queries = distinct_queries(
            random.Random(FIXTURE_SEED), self.inputs(), self.WARMUP + pool_size(smoke)
        )
        self.warmup = queries[: self.WARMUP]
        self.measured = shuffled(queries[self.WARMUP :], seed)

    def inputs(self):
        return calculus_model()

    def setup(self, model):
        from repro.querycalc import QueryService

        service = QueryService(model, mode="process", workers=2)
        for query in self.warmup:
            service.run(query)
        return SimpleNamespace(model=model, service=service)

    def ops(self) -> Iterator[Op]:
        for index, query in itertools.cycle(enumerate(self.measured)):
            yield Op("read", f"query {index}", query)

    def execute(self, system, op: Op):
        # a digest keeps the gate's record small whatever the throughput
        return hash(_ids(system.service.run(op.payload)))

    def check(self, system, records) -> List[str]:
        from repro.querycalc.native import run_query

        expected: Dict[str, int] = {}
        mismatches = []
        for index, op, digest in records:
            if op.key not in expected:
                expected[op.key] = hash(_ids(run_query(op.payload, system.model)))
            if digest != expected[op.key]:
                mismatches.append(f"op {index} ({op.key}): ids differ from native run_query")
        return mismatches

    def counters(self, system) -> Dict[str, float]:
        return _query_service_counters(system.service)

    def close(self, system) -> None:
        system.service.close()


#: labels the calc_rw writes draw from.
_LABELS = ("ant", "bee", "cat", "doe", "elk", "fox", "gnu", "hen")


class _CalcWrites:
    """calc_rw's write scripts, drawn in the order writes run.

    Inserts and property replacements touch the original nodes; deletes
    remove only nodes an earlier write inserted, so every read query (all
    drawn against the original model) stays valid.
    """

    def __init__(self, seed: int, base_ids: List[str]):
        self.rng = random.Random(seed)
        self.base = base_ids
        self.alive: List[str] = []
        self.count = 0

    def next(self) -> str:
        from repro.testing.models import NODE_TYPES, RELATIONS

        rng = self.rng
        self.count += 1
        roll = rng.random()
        if roll < 0.15 and self.alive:
            return f"delete node {self.alive.pop(rng.randrange(len(self.alive)))}"
        if roll < 0.45:
            node_id = f"bw{self.count}"
            self.alive.append(node_id)
            return (
                f"insert node {rng.choice(NODE_TYPES)} id {node_id} "
                f'with (label "{rng.choice(_LABELS)}", rank {rng.randrange(40)})'
            )
        if roll < 0.70:
            return (
                f"insert relation {rng.choice(RELATIONS)} "
                f"from {rng.choice(self.base)} to {rng.choice(self.base)}"
            )
        return f"replace value of {rng.choice(self.base)}.rank with {rng.randrange(40)}"


class CalcRW(Workload):
    name = "calc_rw"
    why = (
        "The same service the opposite way, in thread mode: warm result-cache "
        "hits, keep/patch/invalidate on 5% writes, incremental export and "
        "statistics deltas, reads and writes interleaved."
    )
    extras = ("latency_p99_ms", "write_p50_ms", "write_p90_ms")
    #: one client: with two in one interpreter a warm hit's time was set by
    #: GIL hand-offs and lock convoys, and the read median swung 0.02–0.13 ms
    #: between identical runs.
    clients = 1
    WARM = 16
    SWEEP = 32
    #: per block of 20: 1 write and 19 reads, 15 from the warm set and 4
    #: fresh plans.  With ~80% of reads warm, p50 sits on the cache-hit path
    #: and p90 inside the misses (at 90% warm it sat on their edge).
    MIX = ("write",) + ("fresh",) * 4 + ("warm",) * 15

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        model = self.inputs()
        self.base_ids = list(model.nodes)
        rng = random.Random(FIXTURE_SEED)
        fixture = distinct_queries(rng, model, self.WARM + self.SWEEP)
        self.warm, self.sweep = fixture[: self.WARM], fixture[self.WARM :]
        fresh = distinct_queries(rng, model, pool_size(smoke), exclude=fixture)
        self.fresh = shuffled(fresh, seed)

    def inputs(self):
        return calculus_model()

    def setup(self, model):
        from repro.querycalc import QueryService

        service = QueryService(model)
        for query in self.warm:
            service.run(query)
        return SimpleNamespace(
            model=model,
            service=service,
            writes=_CalcWrites(self.seed + 1, self.base_ids),
            write_lock=threading.Lock(),
        )

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 2)
        fresh = itertools.cycle(enumerate(self.fresh))
        for kind in _blocks(rng, self.MIX):
            if kind == "write":
                yield Op("write", "write", None)
            elif kind == "fresh":
                index, query = next(fresh)
                yield Op("read", f"fresh query {index}", query)
            else:
                index = rng.randrange(self.WARM)
                yield Op("read", f"warm query {index}", self.warm[index])

    def execute(self, system, op: Op):
        if op.kind == "write":
            with system.write_lock:
                return system.service.apply_update(system.writes.next())["applied"]
        return _ids(system.service.run(op.payload))

    def check(self, system, records) -> List[str]:
        """After the clients stop: the warm set and 32 unseen plans vs native."""
        from repro.querycalc.native import run_query

        mismatches = []
        for label, queries in (("warm", self.warm), ("sweep", self.sweep)):
            for index, query in enumerate(queries):
                got = _ids(system.service.run(query))
                if got != _ids(run_query(query, system.model)):
                    mismatches.append(f"{label} query {index}: ids differ from native run_query")
        return mismatches

    def counters(self, system) -> Dict[str, float]:
        return _query_service_counters(system.service)


# -- search_rw ----------------------------------------------------------------------

#: E22's corpus size.
DOCUMENTS = 1200
#: the collections reads use; writes go to ``hot/`` only, so cached reads
#: stay valid (a write under ``docs/`` would halve the hit rate).
STABLE = ("docs/", "notes/", "wiki/")
RARE_WORDS = tuple(f"rare{i}" for i in range(40))


def corpus(rng: random.Random, documents: int) -> List[Tuple[str, str]]:
    """E22's store: short documents over the full-text vocabulary."""
    from repro.testing.models import FT_WORDS

    texts = []
    for index in range(documents):
        prefix = STABLE[index % len(STABLE)]
        words = [rng.choice(FT_WORDS) for _ in range(rng.randrange(12, 30))]
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words)), rng.choice(RARE_WORDS))
        texts.append((f"{prefix}d{index:05d}.xml", f"<doc>{' '.join(words)}</doc>"))
    texts.append(("hot/seed.xml", "<doc>alpha beta hot seed</doc>"))
    return texts


def _search_request(rng: random.Random, uris: Sequence[str]):
    from repro.collections import SearchRequest
    from repro.testing.models import FT_WORDS

    kind = rng.choices(("doc", "collection", "search", "kwic"), weights=(25, 15, 35, 25))[0]
    if kind == "doc":
        return SearchRequest(kind="doc", uri=rng.choice(uris))
    collection = rng.choice(STABLE)
    if kind == "collection":
        return SearchRequest(kind="collection", collection=collection, limit=rng.randrange(1, 21))
    vocabulary = RARE_WORDS if rng.random() < 0.1 else FT_WORDS
    phrase = " ".join(rng.choice(vocabulary) for _ in range(rng.choice((1, 1, 2))))
    if kind == "search":
        limit = rng.choice((0, rng.randrange(1, 21)))
        return SearchRequest(kind="search", collection=collection, phrase=phrase, limit=limit)
    return SearchRequest(
        kind="kwic",
        collection=collection,
        phrase=phrase,
        width=rng.randrange(16, 41),
        limit=rng.randrange(1, 21),
    )


def distinct_requests(rng: random.Random, uris: Sequence[str], count: int, exclude=()) -> list:
    """``count`` seeded search requests with distinct keys, none in ``exclude``."""
    seen = {request.key() for request in exclude}
    requests = []
    while len(requests) < count:
        request = _search_request(rng, uris)
        if request.key() not in seen:
            seen.add(request.key())
            requests.append(request)
    return requests


class SearchRW(Workload):
    name = "search_rw"
    why = (
        "Collections through the process tier: full-text index, KWIC, scatter "
        "merge, search pipe, generation-keyed cache and write replication; "
        "bypasses querycalc and the model export."
    )
    extras = ("latency_p99_ms", "write_p50_ms", "write_p90_ms", "worker_rss_mb")
    WARM = 16
    SWEEP = 32
    #: per block of 20: 1 write under hot/, 15 warm reads (80% of reads) and
    #: 4 fresh requests.
    MIX = ("write",) + ("fresh",) * 4 + ("warm",) * 15

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        fixture = random.Random(FIXTURE_SEED)
        self.texts = corpus(fixture, 300 if smoke else DOCUMENTS)
        uris = [uri for uri, _ in self.texts if not uri.startswith("hot/")]
        requests = distinct_requests(fixture, uris, self.WARM + self.SWEEP)
        self.warm, self.sweep = requests[: self.WARM], requests[self.WARM :]
        fresh = distinct_requests(fixture, uris, pool_size(smoke), exclude=requests)
        self.fresh = shuffled(fresh, seed)

    def setup(self, inputs):
        from repro.collections import DocumentStore, SearchService

        store = DocumentStore()
        for uri, text in self.texts:
            store.put_text(uri, text)
        service = SearchService(store, shards=2, mode="process")
        for request in self.warm:
            service.run(request)
        return SimpleNamespace(
            store=store,
            service=service,
            write_rng=random.Random(self.seed + 1),
            writes=0,
            write_lock=threading.Lock(),
            answers={},
            mismatches=[],
        )

    def ops(self) -> Iterator[Op]:
        rng = random.Random(self.seed + 2)
        fresh = itertools.cycle(enumerate(self.fresh))
        for kind in _blocks(rng, self.MIX):
            if kind == "write":
                yield Op("write", "write", None)
            elif kind == "fresh":
                index, request = next(fresh)
                yield Op("read", f"fresh request {index}", request)
            else:
                index = rng.randrange(self.WARM)
                yield Op("read", f"warm request {index}", self.warm[index])

    def execute(self, system, op: Op):
        from repro.testing.models import FT_WORDS

        if op.kind == "write":
            with system.write_lock:
                rng = system.write_rng
                words = " ".join(rng.choice(FT_WORDS) for _ in range(rng.randrange(8, 20)))
                system.service.put_text(f"hot/w{system.writes % 8}.xml", f"<doc>{words}</doc>")
                system.writes += 1
            return None
        digest = hash(system.service.run(op.payload).text)
        # reads never touch hot/, so one request must always read the same.
        if system.answers.setdefault(op.payload.key(), digest) != digest:
            system.mismatches.append(f"{op.key}: answer changed between reads")
        return None

    def check(self, system, records) -> List[str]:
        """After the clients stop: the warm set and 32 unseen requests vs
        an unsharded, index-off evaluation of the live store."""
        mismatches = list(system.mismatches)
        for label, requests in (("warm", self.warm), ("sweep", self.sweep)):
            for index, request in enumerate(requests):
                served = system.service.run(request).text
                if served != system.service.evaluate_fresh(request, use_index=False):
                    mismatches.append(f"{label} request {index}: differs from index-off evaluation")
        return mismatches

    def counters(self, system) -> Dict[str, float]:
        stats = system.service.stats()
        metrics = stats["metrics"]
        caches = [stats["compile_cache"]] + [w["compile_cache"] for w in stats.get("workers", [])]
        return {
            "compile_hits": sum(cache["hits"] for cache in caches),
            "compile_misses": sum(cache["misses"] for cache in caches),
            "search_hits": metrics["cache_hits"],
            "search_misses": metrics["cache_misses"],
            "search_single": metrics["single"],
            "search_scatter": metrics["scatter"],
            "maintenance_ops": stats["store"]["index"]["maintenance_ops"],
        }

    def close(self, system) -> None:
        system.service.close()


WORKLOADS = {workload.name: workload for workload in (DocGen, CalcCold, CalcRW, SearchRW)}
