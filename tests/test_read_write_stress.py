"""Reads racing writes on both front ends, in both modes, for real.

Each case runs reader and writer threads together for about two seconds
at a 0.1 ms switch interval and checks every read against what a
linearizable read may return: a state between the last write that
finished before the read began and the last write that began before it
ended.  One reader's successive reads must never go back for any
writer: the interval check alone would let a read return an older state
than the same reader's previous read.  ``QueryService`` reads must also
hold each update script wholly or not at all.
"""

import re
import sys
import threading
import time

import pytest

from repro.collections import DocumentStore, SearchRequest, SearchService
from repro.querycalc.ast import Collect, FilterProperty, Query, Start
from repro.querycalc.native import run_query
from repro.querycalc.service import QueryService
from repro.workloads import make_it_model

DURATION = 2.0
READERS = 3
WRITERS = 2


def race(reader, writer):
    """Run READERS reader threads and WRITERS writer threads until
    DURATION elapses; return the failures they reported."""
    failures = []
    stop_at = time.monotonic() + DURATION

    def loop(step, index):
        count = 0
        while time.monotonic() < stop_at and len(failures) < 10:
            try:
                step(index, count)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))
            count += 1

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=loop, args=(reader, i)) for i in range(READERS)]
        threads += [threading.Thread(target=loop, args=(writer, i)) for i in range(WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    return failures


def check_written(seen, done_before, started_after, what):
    """*seen* holds each writer's counters as one read saw them; each must
    lie between the writer's last finished write before the read and its
    last started write after it."""
    for writer in range(WRITERS):
        value = seen.get(writer, -1)
        low, high = done_before[writer], started_after[writer]
        assert low <= value <= high, f"{what}: writer {writer} at {value}, not in [{low}, {high}]"


def check_monotonic(seen, last, what):
    """*seen* holds the writer counters one read saw, and *last* the
    newest each writer reached in the same reader's earlier reads; a
    counter may not go back.  *last* is updated in place."""
    for writer, value in seen.items():
        previous = last.get(writer, -1)
        assert value >= previous, f"{what}: writer {writer} went back from {previous} to {value}"
        last[writer] = value


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_query_service_reads_see_whole_scripts(mode):
    """Two writers insert two nodes of different types per script, each in
    its own id namespace; three readers scan every node.  A read holds each writer's
    scripts 0..k for one k, both nodes of each, with k no older than the
    writer's last finished script and no newer than its last started one."""
    model = make_it_model(scale=6)
    types = sorted({node.type_name for node in model.nodes.values()})[:2]
    queries = [
        # a patchable scan (updates splice it in the cache) and a filtered
        # one (updates invalidate it, so reads execute under the writers)
        Query(Start(all_nodes=True), [], Collect(sort_by="label")),
        Query(
            Start(all_nodes=True),
            [FilterProperty(name="label", op="ne", value="x")],
            Collect(descending=True),
        ),
    ]
    done = [-1] * WRITERS
    started = [-1] * WRITERS
    pattern = re.compile(r"w(\d+)n(\d+)([ab])$")
    newest = [{} for _ in range(READERS)]

    with QueryService(model, mode=mode, workers=2) as service:

        def reader(index, count):
            done_before = list(done)
            ids = [node.id for node in service.run(queries[(index + count) % 2])]
            started_after = list(started)
            halves = {}
            for node_id in ids:
                found = pattern.match(node_id)
                if found:
                    writer, script, half = found.groups()
                    halves.setdefault((int(writer), half), set()).add(int(script))
            seen = {}
            for writer in range(WRITERS):
                first = halves.get((writer, "a"), set())
                assert first == halves.get((writer, "b"), set()), f"torn script: {ids}"
                assert first == set(range(len(first))), f"gap in writer {writer}: {ids}"
                seen[writer] = len(first) - 1
            check_written(seen, done_before, started_after, "query read")
            check_monotonic(seen, newest[index], "query read")

        def writer(index, count):
            started[index] = count
            service.apply_update(
                "; ".join(
                    f'insert node {type_name} id w{index}n{count}{half} '
                    f'with (label "w{index}n{count}{half}")'
                    for type_name, half in zip(types, "ab")
                )
            )
            done[index] = count

        failures = race(reader, writer)
        assert failures == []
        assert min(done) >= 0
        for query in queries:
            assert [node.id for node in service.run(query)] == [
                node.id for node in run_query(query, model)
            ]
        assert service.metrics()["executed"] > 0


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_search_service_reads_are_no_older_than_the_last_write(mode):
    """Two writers rewrite their own ``hot/wN.xml`` with a counter; three
    readers fetch both documents and a KWIC page over ``hot/``.  Every
    counter a read sees lies between that writer's last finished write
    before the read and its last started write after it."""
    store = DocumentStore()
    for writer in range(WRITERS):
        store.put_text(f"hot/w{writer}.xml", f"<doc>w{writer} count 0 end</doc>")
    for index in range(4):
        store.put_text(f"cold/d{index}.xml", f"<doc>cold count {index} end</doc>")
    requests = [SearchRequest(kind="doc", uri=f"hot/w{w}.xml") for w in range(WRITERS)]
    requests.append(SearchRequest(kind="kwic", collection="hot/", phrase="count", width=12))
    done = [0] * WRITERS
    started = [0] * WRITERS
    # KWIC snippets mark the phrase: "w0 «count» 7 end"
    counter = re.compile(r"w(\d+) «?count»? (\d+)")
    newest = [{} for _ in range(READERS)]

    with SearchService(store, shards=2 if mode == "process" else 1, mode=mode) as service:

        def reader(index, count):
            request = requests[(index + count) % len(requests)]
            done_before = list(done)
            text = service.run(request).text
            started_after = list(started)
            seen = {int(w): int(c) for w, c in counter.findall(text)}
            check_monotonic(seen, newest[index], request.key())
            if request.kind == "doc":
                writer = int(request.uri[len("hot/w")])
                assert list(seen) == [writer], text
                for other in range(WRITERS):
                    seen.setdefault(other, done_before[other])
            else:
                assert sorted(seen) == list(range(WRITERS)), text
            check_written(seen, done_before, started_after, request.key())

        def writer(index, count):
            started[index] = count + 1
            service.put_text(
                f"hot/w{index}.xml", f"<doc>w{index} count {count + 1} end</doc>"
            )
            done[index] = count + 1

        failures = race(reader, writer)
        assert failures == []
        assert min(done) > 0
        for request in requests:
            assert service.run(request).text == service.evaluate_fresh(
                request, use_index=False
            )
        assert service.stats()["restarts"] == 0
