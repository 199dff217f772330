"""E22 — the document-collection workload: indexed search vs brute scan.

The tentpole claim: over a ≥1,000-document collection, the positional
inverted index answers ``ft:search`` at least **10×** faster than the
unindexed document scan — while every single result stays byte-identical
to the brute-force path (the oracle's currency), and a 95/5 read/write
mix keeps its warm-hit rate above 90% because the result cache keys on
*collection generations*: a write under ``hot/`` cold-starts exactly the
``hot/`` answers and leaves every other collection's entries warm.

Gates:

* **speed** — median indexed query time × 10 ≤ median brute query time
  over the same phrase panel (full run; the CI smoke variant gates 3×
  on a smaller corpus to stay timing-robust on shared runners);
* **byte-identity** — every timed query and every mix read compared
  against an index-off evaluation of the same request;
* **warm mix** — warm-hit rate > 90% under 1 write per 20 operations.

Writes go through the service (incremental index maintenance), never a
rebuild: the store's ``maintenance_ops`` counter is asserted to move by
O(1) per write.
"""

import os
import random
import statistics
import time

from conftest import format_table, record_json, record_result
from repro.collections import DocumentStore, SearchRequest, SearchService
from repro.testing.models import FT_WORDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = 1200
MIX_OPS = 400
WRITE_EVERY = 20   # 1 write per 20 ops = the 95/5 mix
WARM_HIT_GATE = 0.90
SPEEDUP_GATE = 10.0
SMOKE_SPEEDUP_GATE = 3.0

#: extra vocabulary so phrases span the selectivity range: "rare-*"
#: tokens hit a handful of documents, FT_WORDS hit many.
RARE_WORDS = [f"rare{i}" for i in range(40)]


def build_store(docs=DOCS, seed=22):
    rng = random.Random(seed)
    store = DocumentStore()
    for index in range(docs):
        prefix = ("docs/", "notes/", "wiki/")[index % 3]
        words = [rng.choice(FT_WORDS) for _ in range(rng.randrange(12, 30))]
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words)), rng.choice(RARE_WORDS))
        store.put_text(f"{prefix}d{index:05d}.xml", f"<doc>{' '.join(words)}</doc>")
    return store


def phrase_panel(rng):
    panel = [rng.choice(RARE_WORDS) for _ in range(4)]
    panel += [f"{rng.choice(FT_WORDS)} {rng.choice(FT_WORDS)}" for _ in range(4)]
    return panel


def _timed(store, collection, phrase, use_index, repeats=3):
    """Median seconds for one search; result returned for parity checks."""
    was = store.use_index
    store.use_index = use_index
    try:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = store.search(collection, phrase)
            times.append(time.perf_counter() - started)
        return statistics.median(times), result
    finally:
        store.use_index = was


def run_speed_cell(docs, seed=22):
    store = build_store(docs=docs, seed=seed)
    rng = random.Random(seed)
    indexed_times, brute_times = [], []
    for phrase in phrase_panel(rng):
        for collection in ("", "docs/"):
            indexed_t, indexed_r = _timed(store, collection, phrase, True)
            brute_t, brute_r = _timed(store, collection, phrase, False)
            # byte-identity: same hits, same scores, same order.
            assert indexed_r == brute_r, (collection, phrase)
            indexed_times.append(indexed_t)
            brute_times.append(brute_t)
    return {
        "docs": docs,
        "queries": len(indexed_times),
        "indexed_median_us": statistics.median(indexed_times) * 1e6,
        "brute_median_us": statistics.median(brute_times) * 1e6,
        "speedup": statistics.median(brute_times) / statistics.median(indexed_times),
    }


def run_mix_cell(docs, ops=MIX_OPS, seed=22, parity_every=1):
    """The 95/5 read/write mix through the service; returns the cell dict.

    Writes land under ``hot/`` only; the read panel spans the stable
    collections plus one hot entry, so the generation-keyed cache keeps
    everything but the written collection warm.
    """
    store = build_store(docs=docs, seed=seed)
    store.put_text("hot/seed.xml", "<doc>alpha beta hot seed</doc>")
    rng = random.Random(seed + 1)
    panel = [
        SearchRequest(kind="search", collection="docs/", phrase="alpha beta"),
        SearchRequest(kind="search", collection="notes/", phrase="gamma"),
        SearchRequest(kind="search", collection="wiki/", phrase="京都"),
        SearchRequest(kind="kwic", collection="docs/", phrase="kappa", width=20),
        SearchRequest(kind="doc", uri="docs/d00000.xml"),
        SearchRequest(kind="collection", collection="hot/"),
        SearchRequest(kind="search", collection="notes/", phrase="delta omega"),
        SearchRequest(kind="search", collection="wiki/", phrase=RARE_WORDS[0]),
    ]
    with SearchService(store, mode="thread") as service:
        for request in panel:  # prime: the cold first pass is not the metric
            service.run(request)
        reads = hits = writes = 0
        read_index = 0
        for op in range(ops):
            if op % WRITE_EVERY == WRITE_EVERY - 1:
                ops_before = store.index.maintenance_ops
                words = " ".join(rng.choice(FT_WORDS) for _ in range(8))
                service.put_text(f"hot/w{writes % 6}.xml", f"<doc>{words}</doc>")
                # incremental maintenance: O(1) documents per write.
                assert store.index.maintenance_ops - ops_before <= 2
                writes += 1
            else:
                request = panel[read_index % len(panel)]
                read_index += 1
                result = service.run(request)
                if reads % parity_every == 0:
                    fresh = service.evaluate_fresh(request, use_index=False)
                    assert result.text == fresh, request.key()
                reads += 1
                hits += bool(result.cached)
        return {
            "docs": docs,
            "reads": reads,
            "writes": writes,
            "warm_hits": hits,
            "warm_hit_rate": hits / reads,
            "metrics": dict(service.metrics),
            "index_stats": store.index.stats(),
        }


def test_e22_smoke_collections():
    """CI smoke gate: a smaller corpus clears a conservative 3× speed
    gate with byte-identity, and the short mix stays >90% warm."""
    speed = run_speed_cell(docs=300)
    assert speed["speedup"] >= SMOKE_SPEEDUP_GATE, speed
    mix = run_mix_cell(docs=300, ops=160)
    assert mix["warm_hit_rate"] > WARM_HIT_GATE, mix


def test_e22_collections():
    speed = run_speed_cell(docs=DOCS)
    assert speed["docs"] >= 1000
    assert speed["speedup"] >= SPEEDUP_GATE, speed

    mix = run_mix_cell(docs=DOCS)
    assert mix["warm_hit_rate"] > WARM_HIT_GATE, mix

    rows = [
        (
            "speed",
            speed["docs"],
            f"{speed['indexed_median_us']:.0f}us",
            f"{speed['brute_median_us']:.0f}us",
            f"{speed['speedup']:.1f}x",
            "-",
        ),
        (
            "95/5 mix",
            mix["docs"],
            f"{mix['reads']} reads",
            f"{mix['writes']} writes",
            "-",
            f"{mix['warm_hit_rate'] * 100:.1f}%",
        ),
    ]
    text = (
        f"E22: {DOCS} documents; gates: indexed >= {SPEEDUP_GATE:.0f}x brute, "
        f"warm-hit > {WARM_HIT_GATE * 100:.0f}%, every answer byte-identical "
        "to index-off evaluation\n"
        + format_table(
            ["cell", "docs", "indexed", "brute", "speedup", "warm-hit"], rows
        )
    )
    record_result("e22_collections.txt", text)

    payload = {
        "experiment": "e22",
        "workload": {
            "docs": DOCS,
            "mix_ops": MIX_OPS,
            "write_every": WRITE_EVERY,
        },
        "gate": {
            "speedup_threshold": SPEEDUP_GATE,
            "warm_hit_rate_threshold": WARM_HIT_GATE,
            "byte_identity": "every timed query and every mix read",
            "enforced": True,
        },
        "speed": speed,
        "mix": mix,
    }
    record_json("e22_collections.json", payload)
    record_json("BENCH_e22.json", payload, directory=REPO_ROOT)
