"""E21 — the write-path cache cliff: a 95/5 read/write mix, maintained vs orphaned.

E15 and E20 made the warm read path essentially free — and left the
write path on a cliff: any mutation moved the model generation, every
result-cache entry was keyed to the old generation, and the next read of
*every* warm query was a cold re-execution.  A 5% write rate was enough
to throw away most of the cache's value.

This experiment drives the same sequential 95/5 mix through two write
paths over identical models:

* **maintained** — writes go through the update sublanguage
  (:meth:`QueryService.apply_update`): the script's footprint is
  intersected with each entry's dependency set, disjoint entries are
  re-keyed, patchable scans are spliced, only genuinely affected
  entries re-execute.
* **orphaned** (the pre-update-language behavior, still reachable) —
  the *same* scripts are applied directly to the model, bypassing the
  service; the generation moves with no footprint, and every warm
  entry silently ages out.  This is exactly what any raw model write
  used to do to the cache.

The read panel deliberately spans the propagation outcomes: patchable
scans of hot and cold types, an all-nodes scan (member-universal, still
patchable), a follow pipeline, and a property filter.  The write cycle
likewise: disjoint inserts, membership inserts, an unrelated relation,
a property overwrite, and a followed-relation insert.

Gates (enforced in thread AND process modes):

* warm-hit rate of the maintained mix **> 90%** — the cliff is gone;
* every read, in both paths, byte-identical to a cold native
  re-execution of the same query over the live model — maintenance
  never trades correctness for hit rate;
* zero skipped propagations — the service never mistook its own writes
  for foreign mutations.

Methodology matches E15/E20: identical workloads, parity asserted on
every single read before any rate is computed, best-of-1 (the metric is
a hit *rate*, not a timing, so rounds add nothing).
"""

import os
import time

from conftest import format_table, record_json, record_result
from repro.querycalc import QueryService
from repro.querycalc.ast import (
    Collect,
    FilterProperty,
    Follow,
    Query,
    Start,
)
from repro.querycalc.native import run_query
from repro.workloads import make_it_model
from repro.xquery.updates import apply_script

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALE = 16
OPS = 400          # total operations per (mode, path) cell
WRITE_EVERY = 20   # 1 write per 20 ops = a 95/5 read/write mix
WARM_HIT_GATE = 0.90


def _panel():
    """Eight reads spanning keep/patch/invalidate territory."""
    return [
        Query(Start(type="User"), [], Collect()),
        Query(Start(type="Person"), [], Collect(descending=True)),
        Query(Start(type="Server"), [], Collect()),
        Query(Start(type="Document"), [], Collect()),
        Query(Start(type="Program"), [], Collect()),
        Query(Start(all_nodes=True), [], Collect()),
        Query(Start(type="Person"), [Follow("likes")], Collect()),
        Query(
            Start(type="User"),
            [FilterProperty("birthYear", "ge", "1970")],
            Collect(),
        ),
    ]


def _write_script(model, step):
    """The ``step``-th write of the deterministic 5-script cycle."""
    kind = step % 5
    if kind == 0:
        # disjoint from every panel member type except the all-nodes scan
        # (which is patchable): keep / patch territory.
        return f'insert node Document with (label "e21-doc-{step:03d}")'
    if kind == 1:
        # membership change on the hottest scans: patch territory; also
        # invalidates the birthYear filter (correctly — not patchable).
        return (
            f'insert node User with (label "e21-user-{step:03d}", '
            f"birthYear {1950 + step % 50})"
        )
    if kind == 2:
        # a relation no panel query follows: pure keep.
        sbd = model.nodes_of_type("SystemBeingDesigned")[0]
        doc = model.nodes_of_type("Document")[-1]
        return f"insert relation has from {sbd.id} to {doc.id}"
    if kind == 3:
        # a property overwrite panel readers sort by: invalidate territory
        # (the Server scan and the all-nodes scan re-execute once).
        server = model.nodes_of_type("Server")[0]
        return f'replace value of {server.id}.label with "srv-{step:03d}"'
    # a followed relation: invalidates the follow pipeline only.
    users = model.nodes_of_type("User")
    return f"insert relation likes from {users[step % len(users)].id} to {users[0].id}"


def _run_mix(service, model, ops, maintained):
    """Drive the sequential 95/5 mix; every read is parity-checked
    against a cold native re-execution of the same query.  Returns
    (reads, warm_hits, writes)."""
    panel = _panel()
    for query in panel:  # prime: the cold first pass is not the metric
        service.run(query)
    reads = hits = writes = 0
    read_index = 0
    for op in range(ops):
        if op % WRITE_EVERY == WRITE_EVERY - 1:
            script = _write_script(model, writes)
            if maintained:
                summary = service.apply_update(script)
                assert summary["propagation"]["skipped"] == 0
            else:
                apply_script(script, model)  # the old cliff: no footprint
            writes += 1
        else:
            query = panel[read_index % len(panel)]
            read_index += 1
            item = service.run(query)
            got = [node.id for node in item]
            expected = [node.id for node in run_query(query, model)]
            assert got == expected, f"read diverged from cold native: {query}"
            reads += 1
            hits += bool(item.served_from_cache)
    return reads, hits, writes


def _cell(mode, workers, maintained, ops=OPS, scale=SCALE):
    model = make_it_model(scale=scale)
    kwargs = {"mode": mode, "workers": workers} if mode == "process" else {}
    with QueryService(model, **kwargs) as service:
        started = time.perf_counter()
        reads, hits, writes = _run_mix(service, model, ops, maintained)
        elapsed = time.perf_counter() - started
        metrics = service.metrics()
        return {
            "reads": reads,
            "warm_hits": hits,
            "writes": writes,
            "warm_hit_rate": hits / reads,
            "elapsed_s": elapsed,
            "propagations": dict(metrics["propagations"]),
            "updates": metrics["updates"],
            "serving_deltas": (
                metrics["serving"]["deltas"] if mode == "process" else None
            ),
            "export": service.cache_stats()["export"],
        }


def test_e21_smoke_mixed_readwrite():
    """CI smoke gate: a short maintained mix clears the warm-hit gate in
    both modes with every read byte-identical to cold native."""
    for mode, workers in (("thread", None), ("process", 2)):
        cell = _cell(mode, workers, maintained=True, ops=160, scale=8)
        assert cell["warm_hit_rate"] > WARM_HIT_GATE, (mode, cell)
        assert cell["propagations"]["kept"] + cell["propagations"]["patched"] > 0


def test_e21_mixed_readwrite():
    cells = {}
    for mode, workers in (("thread", None), ("process", 2)):
        for maintained in (True, False):
            key = f"{mode}_{'maintained' if maintained else 'orphaned'}"
            cells[key] = _cell(mode, workers, maintained)

    # the tentpole gate: with maintenance the 95/5 mix stays warm.
    for mode in ("thread", "process"):
        maintained = cells[f"{mode}_maintained"]
        assert maintained["warm_hit_rate"] > WARM_HIT_GATE, (mode, maintained)
        # and the contrast is real: the orphaned path is the cliff.
        orphaned = cells[f"{mode}_orphaned"]
        assert maintained["warm_hit_rate"] > orphaned["warm_hit_rate"]

    rows = [
        (
            key,
            f"{cell['reads']}/{cell['writes']}",
            f"{cell['warm_hit_rate'] * 100:.1f}%",
            cell["propagations"]["kept"],
            cell["propagations"]["patched"],
            cell["propagations"]["invalidated"],
            f"{cell['elapsed_s']:.2f}s",
        )
        for key, cell in cells.items()
    ]
    thread = cells["thread_maintained"]
    text = (
        f"sequential 95/5 mix: {OPS} ops per cell, scale={SCALE}, "
        f"gate: warm-hit > {WARM_HIT_GATE * 100:.0f}%\n"
        + format_table(
            ["cell", "reads/writes", "warm-hit", "kept", "patched", "inval", "wall"],
            rows,
        )
        + "\n\nevery read parity-checked against cold native re-execution\n"
        + (
            f"export maintenance (thread): "
            f"{thread['export']['subtree_exports']} subtree exports, "
            f"{thread['export']['full_exports']} full exports"
        )
    )
    record_result("e21_mixed_readwrite.txt", text)

    payload = {
        "experiment": "e21",
        "workload": {
            "ops_per_cell": OPS,
            "write_every": WRITE_EVERY,
            "scale": SCALE,
            "panel_queries": len(_panel()),
        },
        "gate": {
            "warm_hit_rate_threshold": WARM_HIT_GATE,
            "enforced": True,
        },
        "cells": cells,
    }
    record_json("e21_mixed_readwrite.json", payload)
    record_json("BENCH_e21.json", payload, directory=REPO_ROOT)
