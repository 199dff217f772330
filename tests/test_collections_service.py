"""The search service tier: one worker per read, generation-keyed cache,
byte-identity with the brute-force path, writes reaching every replica,
and structured errors across the pipe.

The cache invariant under test: keys carry the *collection generation*
(document generation for uri-addressed reads), so a write to ``docs/``
cold-starts exactly the ``docs/`` answers while ``notes/`` stays warm —
no sweep, no global flush.
"""

import pytest

from repro.collections import DocumentStore, SearchRequest, SearchService
from repro.querycalc.service.errors import RemoteQueryError, classify_error
from repro.serving.partition import bucket
from repro.testing.models import random_document_store
from repro.xquery.errors import XQueryDynamicError


def make_store(docs=8):
    store = DocumentStore()
    for index in range(docs):
        prefix = "docs/" if index % 2 == 0 else "notes/"
        words = ["alpha beta", "beta gamma", "alpha beta alpha beta"][index % 3]
        store.put_text(f"{prefix}d{index}.xml", f"<doc>{words} w{index}</doc>")
    return store


SEARCH = SearchRequest(kind="search", collection="docs/", phrase="alpha beta")
NOTES = SearchRequest(kind="search", collection="notes/", phrase="beta gamma")


# -- routing proofs ------------------------------------------------------------

KINDS = [
    SearchRequest(kind="doc", uri="docs/d0.xml"),
    SearchRequest(kind="collection", collection="notes/"),
    SEARCH,
    SearchRequest(kind="kwic", collection="docs/", phrase="beta", width=12),
]


def test_route_proofs():
    """Every request kind goes, whole, to the worker that owns its key:
    the calculus tier's one rule."""
    for shards in (1, 4):
        with SearchService(make_store(), shards=shards, mode="thread") as service:
            for request in KINDS:
                route = service.run(request).route
                assert (route.kind, route.shard) == ("single", bucket(request.key(), shards))
                assert route.reason == f"plan-key-owner crc32(key) % {shards}"
            assert service.metrics["single"] == len(KINDS)
            assert service.metrics["scatter"] == 0


def test_doc_requests_prove_single_shard():
    with SearchService(make_store(), shards=3, mode="thread") as service:
        result = service.run(SearchRequest(kind="doc", uri="docs/d0.xml"))
        assert result.route.kind == "single"
        assert result.route.shard == bucket("doc:docs/d0.xml", 3)
        assert result.route.reason.startswith("plan-key-owner")
        assert service.metrics["single"] == 1 and service.metrics["scatter"] == 0
        searched = service.run(SEARCH)
        assert searched.route.shard == bucket(SEARCH.key(), 3)
        assert service.metrics["single"] == 2 and service.metrics["scatter"] == 0


# -- the generation-keyed result cache -----------------------------------------


def test_warm_hit_replays_cold_text():
    with SearchService(make_store(), shards=1) as service:
        cold = service.run(SEARCH)
        warm = service.run(SEARCH)
        assert not cold.cached and warm.cached
        assert warm.text == cold.text
        assert warm.generation == cold.generation


def test_write_to_one_collection_keeps_others_warm():
    with SearchService(make_store(), shards=1) as service:
        service.run(SEARCH)
        service.run(NOTES)
        service.put_text("docs/new.xml", "<doc>alpha beta fresh</doc>")
        # the touched collection misses (its generation moved)...
        after = service.run(SEARCH)
        assert not after.cached
        assert "docs/new.xml" in after.text
        # ...the untouched collection still hits its old generation key.
        assert service.run(NOTES).cached


def test_doc_request_keys_on_document_generation():
    with SearchService(make_store(), shards=1) as service:
        doc = SearchRequest(kind="doc", uri="docs/d0.xml")
        service.run(doc)
        # a write to a *different* document in the same collection does
        # not disturb the uri-addressed entry.
        service.put_text("docs/other.xml", "<doc>gamma</doc>")
        assert service.run(doc).cached
        service.put_text("docs/d0.xml", "<doc>rewritten alpha</doc>")
        fresh = service.run(doc)
        assert not fresh.cached and "rewritten" in fresh.text


# -- byte-identity with the brute-force path ----------------------------------


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("shards", [1, 3])
def test_sharded_answers_are_byte_identical_to_brute_force(mode, shards):
    store = random_document_store(41, docs=12)
    requests = [
        SearchRequest(kind="search", collection="", phrase="alpha"),
        SearchRequest(kind="search", collection="docs/", phrase="beta"),
        SearchRequest(kind="search", collection="notes/", phrase="京都", limit=2),
        SearchRequest(kind="kwic", collection="", phrase="gamma", width=12),
        SearchRequest(kind="collection", collection="models/"),
        SearchRequest(kind="doc", uri=store.uris()[0]),
    ]
    with SearchService(store, shards=shards, mode=mode) as service:
        for request in requests:
            served = service.run(request).text
            fresh = service.evaluate_fresh(request, use_index=False)
            assert served == fresh, (mode, shards, request.key())


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_writes_reach_replicas_incrementally(mode):
    store = make_store()
    with SearchService(store, shards=2, mode=mode) as service:
        before = service.run(SEARCH).text
        service.put_text("docs/zz.xml", "<doc>alpha beta alpha beta alpha beta</doc>")
        after = service.run(SEARCH)
        assert not after.cached
        assert after.text != before
        # the new top-scoring document leads the ranking.
        assert after.text.index("docs/zz.xml") < after.text.index("docs/d0.xml")
        assert after.text == service.evaluate_fresh(SEARCH, use_index=False)
        service.delete("docs/zz.xml")
        assert service.run(SEARCH).text == before


def test_model_backed_update_through_service():
    store = random_document_store(13, docs=10)
    uri = next(u for u in store.uris() if u.startswith("models/"))
    request = SearchRequest(kind="search", collection="models/", phrase="zzyzx")
    with SearchService(store, shards=2, mode="process") as service:
        assert service.run(request).text == ""
        service.apply_update(uri, 'insert node Document with (label "pad zzyzx pad");')
        after = service.run(request)
        assert uri in after.text
        assert after.text == service.evaluate_fresh(request, use_index=False)


# -- structured errors across the pipe -----------------------------------------


def test_missing_doc_is_fodc0002_in_thread_mode():
    with SearchService(make_store(), shards=1) as service:
        with pytest.raises(XQueryDynamicError) as caught:
            service.run(SearchRequest(kind="doc", uri="missing.xml"))
        assert caught.value.code == "FODC0002"
        assert service.metrics["errors"] == 1


def test_fodc0002_crosses_the_worker_pipe_structured():
    """A worker's FODC0002 must arrive as a RemoteQueryError that the
    taxonomy classifies identically to the in-process error: the PR 4
    structured-error contract, now for document retrieval."""
    with SearchService(make_store(), shards=2, mode="process") as service:
        with pytest.raises(RemoteQueryError) as caught:
            service.run(SearchRequest(kind="doc", uri="missing.xml"))
        error = classify_error(caught.value)
        assert error.kind == "dynamic"
        assert error.code == "FODC0002"
        assert caught.value.remote_exception == "XQueryDynamicError"
        # the tier survives the error: the next request still answers.
        assert service.run(SEARCH).text


def test_unknown_collection_crosses_the_pipe_too():
    with SearchService(make_store(), shards=2, mode="process") as service:
        with pytest.raises(RemoteQueryError) as caught:
            service.run(SearchRequest(kind="collection", collection="never/"))
        assert classify_error(caught.value).code == "FODC0002"


# -- request validation and loadgen surface ------------------------------------


def test_request_validation():
    with pytest.raises(ValueError):
        SearchRequest(kind="bogus")
    assert 'ft:search' in SEARCH.source()
    assert SEARCH.key() != NOTES.key()


def test_ampersands_and_quotes_in_literals_ask_the_store_what_they_say():
    """``source()`` escapes ``&`` and ``"`` in its string literals, so a
    phrase or uri holding them answers what the store itself answers.
    ``evaluate_fresh`` compiles the same source, so the store is the
    reference here."""
    from xml.etree import ElementTree

    from repro.xmlio import serialize

    store = DocumentStore()
    store.put_text("docs/b&c.xml", '<doc>AT&amp;T said &quot;hi&quot; &amp;amp; AT T</doc>')
    store.put_text('docs/q"d.xml', "<doc>at t amp say hi</doc>")
    store.put_text("docs/plain.xml", "<doc>nothing here</doc>")
    with SearchService(store, shards=2) as service:
        for uri in store.uris():
            served = service.run(SearchRequest(kind="doc", uri=uri)).text
            assert served == serialize(store.resolve(uri)), uri
        for phrase in ["AT&T", 'said "hi"', "&amp;", "&", '"hi" &amp; at']:
            request = SearchRequest(kind="search", collection="docs/", phrase=phrase)
            hits = ElementTree.fromstring(f"<r>{service.run(request).text}</r>")
            served = [(hit.get("uri"), int(hit.get("score"))) for hit in hits]
            assert served == store.search("docs/", phrase), phrase


def test_search_loadgen_smoke():
    from repro.serving.loadgen import run_search_load, search_parity_sweep

    store = random_document_store(99, docs=16)
    with SearchService(store, shards=2, mode="thread") as service:
        report = run_search_load(service, clients=4, duration=0.5, seed=99)
        assert report["requests"] > 0
        assert report["availability"] == 1.0
        assert search_parity_sweep(service, 99, count=8) == 0


# -- every write reaches every replica ----------------------------------------


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_write_creating_new_collection_is_visible_on_every_shard(mode):
    """A write that *creates* a collection reaches every replica, so a
    read over the new collection answers it, whichever worker it routes
    to, instead of FODC0002."""
    with SearchService(make_store(), shards=2, mode=mode) as service:
        service.put_text("brand/sub/new.xml", "<doc>alpha fresh</doc>")
        for request in [
            SearchRequest(kind="search", collection="brand/", phrase="alpha"),
            SearchRequest(kind="collection", collection="brand/"),
            SearchRequest(kind="kwic", collection="brand/sub/", phrase="fresh"),
        ]:
            served = service.run(request)
            assert "brand/sub/new.xml" in served.text
            assert served.text == service.evaluate_fresh(request, use_index=False)


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_every_worker_answers_every_request(mode):
    """After random puts and deletes, an update script, a write creating a
    collection and the delete of a collection's last member, every worker
    holds the whole store and answers every request kind exactly as an
    index-off evaluation of the authoritative store does."""
    import random

    from repro.testing.models import random_phrase

    rng = random.Random(31)
    store = random_document_store(13, docs=10)
    model_uri = next(uri for uri in store.uris() if uri.startswith("models/"))
    with SearchService(store, shards=3, mode=mode) as service:
        for step in range(16):
            uri = f"{rng.choice(['docs/', 'notes/'])}w{rng.randrange(6)}.xml"
            if uri in service.store and rng.random() < 0.4:
                service.delete(uri)
            else:
                words = " ".join(random_phrase(rng) for _ in range(3))
                service.put_text(uri, f"<doc>{words} s{step}</doc>")
        service.apply_update(model_uri, 'insert node Document with (label "pad zzyzx pad");')
        service.put_text("brand/sub/new.xml", "<doc>alpha fresh</doc>")
        service.put_text("lone/only.xml", "<doc>alpha alone</doc>")
        service.delete("lone/only.xml")
        requests = [
            SearchRequest(kind="doc", uri=model_uri),
            SearchRequest(kind="doc", uri="brand/sub/new.xml"),
            SearchRequest(kind="collection", collection="brand/"),
            SearchRequest(kind="collection", collection="lone/"),
            SearchRequest(kind="collection", collection="", limit=5),
            SearchRequest(kind="search", collection="", phrase="alpha"),
            SearchRequest(kind="search", collection="models/", phrase="zzyzx"),
            SearchRequest(kind="search", collection="lone/", phrase="alpha"),
            SearchRequest(kind="kwic", collection="docs/", phrase="beta", width=12),
        ] + [
            SearchRequest(kind="doc", uri=uri)
            for uri in service.store.uris()
            if uri.startswith(("docs/w", "notes/w"))
        ]
        for request in requests:
            expected = service.evaluate_fresh(request, use_index=False)
            payload = {"source": request.source(), "key": request.key()}
            for handle in service._workers:
                answer = handle.request("run", payload)["text"]
                assert answer == expected, (mode, handle.shard, request.key())
        for handle in service._workers:
            documents = handle.request("stats", {})["store"]["documents"]
            assert documents == len(service.store), (mode, handle.shard)


def test_a_read_makes_one_round_trip(monkeypatch):
    """A cold read of any kind is one ``_WorkerHandle.request``: no
    scatter over the workers and no merge."""
    from repro.collections import service as search_service

    calls = []
    original = search_service._WorkerHandle.request

    def counted(self, op, payload, timeout=None):
        calls.append(op)
        return original(self, op, payload, timeout)

    monkeypatch.setattr(search_service._WorkerHandle, "request", counted)
    with SearchService(make_store(), shards=2, mode="process") as service:
        for request in KINDS:
            calls.clear()
            assert not service.run(request).cached
            assert calls == ["run"], request.kind


# -- a dead worker is respawned from the authoritative store -----------------


def test_write_after_owner_worker_dies_respawns_it_with_the_write():
    """Kill the owner of a new document, then write it into a brand-new
    collection: the write may fail (structured) or succeed, but the owner
    comes back booted from the authoritative store, so every read after it
    equals an index-off evaluation of that store."""
    uri = "brand/sub/new.xml"
    with SearchService(make_store(), shards=2, mode="process") as service:
        victim = service._workers[bucket(uri, 2)]
        victim.process.kill()
        victim.process.join(timeout=5.0)
        try:
            service.put_text(uri, "<doc>alpha fresh</doc>")
        except Exception as exc:
            assert classify_error(exc).kind in ("internal", "timeout")
        requests = [
            SearchRequest(kind="doc", uri=uri),
            SearchRequest(kind="search", collection="brand/", phrase="alpha"),
            SearchRequest(kind="collection", collection="brand/"),
            SEARCH,
        ]
        for request in requests:
            served = service.run(request).text
            assert served == service.evaluate_fresh(request, use_index=False)
        assert "brand/sub/new.xml" in service.run(requests[1]).text
        stats = service.stats()
        assert stats["restarts"] == 1
        assert [worker["restarts"] for worker in stats["workers"]] == [
            int(shard == bucket(uri, 2)) for shard in range(2)
        ]


# -- reads do not serialize on the service's locks ----------------------------


def test_reads_execute_outside_the_service_lock():
    """While one read is deep in evaluation, the writer lock and the
    shared metrics lock must be free: the read holds its shard's handle,
    not the service — the shared-nothing-readers property the load harness
    measures."""
    import threading

    with SearchService(make_store(), shards=2, mode="thread") as service:
        started, release = threading.Event(), threading.Event()
        worker = service._workers[0].worker
        original = worker.run

        def slow(payload):
            started.set()
            assert release.wait(5.0)
            return original(payload)

        worker.run = slow
        reader = threading.Thread(target=service.run, args=(SEARCH,))
        reader.start()
        try:
            assert started.wait(5.0)
            for lock in (service._write_lock, service._metrics_lock):
                assert lock.acquire(timeout=2.0)
                lock.release()
            assert service.metrics["requests"] == 0  # counted when it ends
        finally:
            release.set()
            reader.join(5.0)
        assert not reader.is_alive()
        assert service.metrics["requests"] == 1
        assert service.metrics["executed"] == 1


@pytest.mark.parametrize("scope", ["docs/", "notes/"])
def test_read_overlapping_a_write_to_its_scope_runs_again(scope):
    """A docs/ search that overlaps a write to docs/ may have read a
    half-replicated state: it runs again and serves, and caches, the
    post-write answer.  A write to notes/ cannot change its answer, so the
    same overlap serves and caches its one execution."""
    import threading
    import time

    with SearchService(make_store(), shards=2, mode="thread") as service:
        write_uri = f"{scope}w0.xml"
        # the reader blocks inside the worker its key routes to, holding
        # that handle; the write waits on it, so it runs on its own thread.
        handle = service._workers[bucket(SEARCH.key(), 2)]
        started, release = threading.Event(), threading.Event()
        worker = handle.worker
        original = worker.run
        first = threading.Event()

        def slow(payload):
            if not first.is_set():
                first.set()
                started.set()
                assert release.wait(5.0)
            return original(payload)

        worker.run = slow
        raced = []
        reader = threading.Thread(target=lambda: raced.append(service.run(SEARCH)))
        writer = threading.Thread(
            target=service.put_text, args=(write_uri, "<doc>alpha beta unrelated</doc>")
        )
        reader.start()
        try:
            assert started.wait(5.0)
            writer.start()
            # release the reader once the authoritative store holds the write
            deadline = time.monotonic() + 5.0
            while write_uri not in service.store and time.monotonic() < deadline:
                time.sleep(0.001)
            assert write_uri in service.store
        finally:
            release.set()
            reader.join(5.0)
            if writer.ident is not None:
                writer.join(5.0)
        assert not reader.is_alive() and not writer.is_alive()
        served = raced[0]
        assert not served.cached
        assert service.metrics["executed"] == (2 if scope == "docs/" else 1)
        assert served.generation == service.scope_generation(SEARCH)
        assert served.text == service.evaluate_fresh(SEARCH, use_index=False)
        assert service._results.get((SEARCH.key(), served.generation)) == (served.text, ())
        assert service.run(SEARCH).cached


def test_read_waits_for_a_write_in_flight():
    """A write has reached the authoritative store but not yet its owner
    replica when a read of that document arrives: the read reaches no
    worker until the replication is released, then returns the new text."""
    import threading

    uri = "docs/d0.xml"
    doc = SearchRequest(kind="doc", uri=uri)
    with SearchService(make_store(), shards=2, mode="thread") as service:
        service.run(doc)
        stored, replicate_now = threading.Event(), threading.Event()
        replicate = service._replicate_put

        def held_replicate(*args):
            stored.set()
            assert replicate_now.wait(5.0)
            replicate(*args)

        service._replicate_put = held_replicate
        reached = threading.Event()
        for handle in service._workers:
            original = handle.worker.run

            def run(payload, original=original):
                reached.set()
                return original(payload)

            handle.worker.run = run
        writer = threading.Thread(
            target=service.put_text, args=(uri, "<doc>rewritten</doc>")
        )
        writer.start()
        raced = []
        reader = threading.Thread(target=lambda: raced.append(service.run(doc)))
        try:
            assert stored.wait(5.0)
            reader.start()
            assert not reached.wait(0.3)
        finally:
            replicate_now.set()
            writer.join(5.0)
            reader.join(5.0)
        assert not writer.is_alive() and not reader.is_alive()
        assert reached.is_set()
        assert "rewritten" in raced[0].text and not raced[0].cached
        assert raced[0].generation == service.scope_generation(doc)
        assert service.run(doc).cached


# -- concurrent reads and writes -----------------------------------------------


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_concurrent_reads_and_writes(mode):
    """Four readers over docs/ and notes/ race one writer under hot/ for
    about a second.  No request raises, and no answer changes between
    reads, since the writer never touches what the readers read; after
    the threads join every answer equals an index-off evaluation."""
    import sys
    import threading
    import time

    requests = [
        SEARCH,
        NOTES,
        SearchRequest(kind="kwic", collection="docs/", phrase="beta", width=12),
        SearchRequest(kind="collection", collection="notes/"),
        SearchRequest(kind="doc", uri="docs/d0.xml"),
    ]
    failures, answers, reads, writes = [], {}, [0], [0]
    answers_lock = threading.Lock()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with SearchService(make_store(), shards=2, mode=mode) as service:
            stop_at = time.monotonic() + 1.0

            def reader(offset):
                index = offset
                while time.monotonic() < stop_at:
                    request = requests[index % len(requests)]
                    index += 1
                    try:
                        text = service.run(request).text
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append(f"{request.key()}: {exc!r}")
                        continue
                    with answers_lock:
                        reads[0] += 1
                        if answers.setdefault(request.key(), text) != text:
                            failures.append(f"{request.key()}: answer changed")

            def writer():
                index = 0
                while time.monotonic() < stop_at:
                    try:
                        # fresh uris grow the shard stores under the readers
                        if index % 5 == 4:
                            service.delete(f"hot/w{index - 1}.xml")
                        else:
                            service.put_text(
                                f"hot/w{index}.xml", f"<doc>alpha beta hot {index}</doc>"
                            )
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append(f"write {index}: {exc!r}")
                    writes[0] += 1
                    index += 1

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert reads[0] > 0 and writes[0] > 0
            for request in requests:
                assert service.run(request).text == service.evaluate_fresh(
                    request, use_index=False
                ), request.key()
            assert service.stats()["restarts"] == 0
    finally:
        sys.setswitchinterval(previous)
