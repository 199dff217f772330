"""The document store: addressing, generations, persistence, FODC0002.

Every failure mode here must surface as a *structured* ``FODC0002``
dynamic error — the PR 4 taxonomy classifies it as ``kind="dynamic"`` —
so the service tier (and its worker pipe) can relay it without losing
the code.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collections import DocumentStore, InvertedIndex
from repro.collections.store import collection_prefixes, normalize_collection
from repro.querycalc.service.errors import classify_error
from repro.testing.models import random_document_store
from repro.xmlio import serialize
from repro.xquery.errors import XQueryDynamicError


def make_store():
    store = DocumentStore()
    store.put_text("docs/a.xml", "<doc>alpha beta</doc>")
    store.put_text("docs/deep/b.xml", "<doc>beta gamma</doc>")
    store.put_text("notes/c.xml", "<note>delta</note>")
    return store


def test_normalize_and_prefixes():
    assert normalize_collection("") == ""
    assert normalize_collection("/") == ""
    assert normalize_collection("docs") == "docs/"
    assert normalize_collection("docs/") == "docs/"
    assert collection_prefixes("a/b/c.xml") == ["", "a/", "a/b/"]
    assert collection_prefixes("flat.xml") == [""]


def test_membership_and_collections():
    store = make_store()
    assert "docs/a.xml" in store and len(store) == 3
    assert store.collection_uris("docs/") == ["docs/a.xml", "docs/deep/b.xml"]
    assert store.collection_uris("docs/deep/") == ["docs/deep/b.xml"]
    assert store.collection_uris("") == sorted(store.uris())
    assert store.uri_of(store.resolve("notes/c.xml")) == "notes/c.xml"


def test_missing_document_is_structured_fodc0002():
    store = make_store()
    with pytest.raises(XQueryDynamicError) as caught:
        store.resolve("missing.xml")
    assert caught.value.code == "FODC0002"
    error = classify_error(caught.value)
    assert error.kind == "dynamic" and error.code == "FODC0002"


def test_unparseable_document_is_structured_fodc0002():
    store = make_store()
    with pytest.raises(XQueryDynamicError) as caught:
        store.put_text("docs/bad.xml", "<doc>never closed")
    assert caught.value.code == "FODC0002"
    assert "not parseable" in str(caught.value)
    assert classify_error(caught.value).kind == "dynamic"
    assert "docs/bad.xml" not in store  # the failed write left no trace


def test_unknown_collection_is_fodc0002_but_emptied_collection_is_not():
    store = make_store()
    with pytest.raises(XQueryDynamicError) as caught:
        store.collection_uris("never/")
    assert caught.value.code == "FODC0002"
    store.remove("notes/c.xml")
    # the collection was known; deleting its last member empties it.
    assert store.collection_uris("notes/") == []


def test_remove_missing_and_foreign_node_are_fodc0002():
    store = make_store()
    with pytest.raises(XQueryDynamicError) as caught:
        store.remove("missing.xml")
    assert caught.value.code == "FODC0002"
    foreign = DocumentStore().put_text("x.xml", "<x/>")
    with pytest.raises(XQueryDynamicError) as caught:
        store.uri_of(foreign)
    assert caught.value.code == "FODC0002"


def test_generations_bump_ancestors_only():
    store = make_store()
    docs_gen = store.collection_generation("docs/")
    notes_gen = store.collection_generation("notes/")
    root_gen = store.collection_generation("")
    store.put_text("docs/deep/new.xml", "<doc>omega</doc>")
    # the written path and every ancestor move...
    assert store.collection_generation("docs/deep/") > docs_gen
    assert store.collection_generation("docs/") > docs_gen
    assert store.collection_generation("") > root_gen
    # ...while the unrelated collection's generation holds still (this is
    # what keeps its cached results warm across the write).
    assert store.collection_generation("notes/") == notes_gen
    assert store.document_generation("docs/deep/new.xml") == store.generation


def test_save_open_roundtrip(tmp_path):
    store = make_store()
    directory = str(tmp_path / "corpus")
    store.save(directory)
    loaded = DocumentStore.open(directory)
    assert loaded.uris() == store.uris()
    assert loaded.known_collections() == store.known_collections()
    assert loaded.generation >= store.generation
    for uri in store.uris():
        assert loaded.text_of(uri) == store.text_of(uri)
    assert loaded.index.snapshot() == store.index.snapshot()


def test_open_without_manifest_scans_xml_files(tmp_path):
    directory = tmp_path / "bare"
    (directory / "docs").mkdir(parents=True)
    (directory / "docs" / "a.xml").write_text("<doc>alpha</doc>", encoding="utf-8")
    loaded = DocumentStore.open(str(directory))
    assert loaded.uris() == ["docs/a.xml"]
    assert loaded.search("", "alpha") == [("docs/a.xml", 1)]


def test_open_with_unparseable_file_is_fodc0002(tmp_path):
    directory = tmp_path / "broken"
    directory.mkdir()
    (directory / "bad.xml").write_text("<doc>", encoding="utf-8")
    with pytest.raises(XQueryDynamicError) as caught:
        DocumentStore.open(str(directory))
    assert caught.value.code == "FODC0002"
    assert "bad.xml" in str(caught.value)


def test_subset_keeps_collections_known():
    """A store's replica knows every collection the store knows, including
    one whose members were all deleted: it answers ``()``, not FODC0002,
    so a worker booted from the replica never flickers an error."""
    store = make_store()
    store.remove("notes/c.xml")
    replica = store.replica()
    assert replica.uris() == store.uris() == ["docs/a.xml", "docs/deep/b.xml"]
    assert replica.known_collections() == store.known_collections()
    assert replica.collection_uris("notes/") == []
    assert replica.search("notes/", "delta") == []


def _image(store):
    """Everything a reader of *store* can observe, as plain values."""
    return (
        {uri: (store.text_of(uri), serialize(store.resolve(uri))) for uri in store.uris()},
        store.index.snapshot(),
        store.known_collections(),
        store.generation,
    )


def _shared_store():
    """A store and its whole-store replica (the ``subset`` in the test
    names below is that replica)."""
    store = random_document_store(5, docs=10)
    return store, store.replica()


def test_subset_shares_text_documents_and_reparses_model_backed_ones():
    store, shard = _shared_store()
    assert shard.uris() == store.uris()
    model_uris = [uri for uri in shard.uris() if uri.startswith("models/")]
    assert model_uris and len(model_uris) < len(shard)
    for uri in shard.uris():
        if uri in model_uris:
            assert shard.resolve(uri) is not store.resolve(uri)
            assert serialize(shard.resolve(uri)) == serialize(store.resolve(uri))
        else:
            assert shard.resolve(uri) is store.resolve(uri)
        assert shard.text_of(uri) == store.text_of(uri)
        assert shard.uri_of(shard.resolve(uri)) == uri


def test_subset_index_equals_a_rebuild_and_counts_like_put_text():
    store, shard = _shared_store()
    rebuilt = InvertedIndex.rebuild(
        (uri, shard.resolve(uri).string_value()) for uri in shard.uris()
    )
    assert shard.index.snapshot() == rebuilt.snapshot()
    parsed = DocumentStore()
    for uri in shard.uris():
        parsed.put_text(uri, shard.text_of(uri))
    assert shard.index.maintenance_ops == parsed.index.maintenance_ops == len(shard)
    assert shard.generation == parsed.generation
    for phrase in ("alpha", "beta gamma", "京都"):
        assert shard.search("", phrase) == parsed.search("", phrase)


@pytest.mark.parametrize("writer", ["source", "subset"])
def test_writes_to_a_store_leave_its_subset_or_source_unchanged(writer):
    store, shard = _shared_store()
    written, other = (store, shard) if writer == "source" else (shard, store)
    before = _image(other)
    text_uri = next(uri for uri in shard.uris() if uri.startswith("docs/"))
    model_uri = next(uri for uri in shard.uris() if uri.startswith("models/"))
    written.put_text(text_uri, "<doc>omega rewritten</doc>")
    written.put_text("docs/fresh.xml", "<doc>alpha fresh</doc>")
    written.remove(next(uri for uri in shard.uris() if uri.startswith("notes/")))
    if written is store:
        store.apply_update(model_uri, 'insert node Document with (label "pad zzyzx pad");')
        assert store.search("models/", "zzyzx") == [(model_uri, 1)]
    else:
        # the replica holds the model's export as plain text: nothing to update
        with pytest.raises(XQueryDynamicError):
            shard.apply_update(model_uri, 'insert node Document with (label "x");')
    assert _image(other) == before


def test_search_indexed_equals_brute_force():
    store = make_store()
    store.put_text("docs/two.xml", "<doc>alpha beta alpha beta</doc>")
    indexed = store.search("", "alpha beta")
    store.use_index = False
    brute = store.search("", "alpha beta")
    store.use_index = True
    assert indexed == brute == [("docs/two.xml", 2), ("docs/a.xml", 1)]


# -- uri validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "uri",
    [
        "",
        "/abs.xml",
        "docs/",
        "..",
        "../escape.xml",
        "docs/../escape.xml",
        "docs//double.xml",
        "docs/./dot.xml",
        "docs\\win.xml",
        "manifest.json",
    ],
)
def test_unstorable_uri_is_rejected_at_put_time(uri):
    store = make_store()
    with pytest.raises(XQueryDynamicError) as caught:
        store.put_text(uri, "<doc>evil</doc>")
    assert caught.value.code == "FODC0002"
    assert "not storable" in str(caught.value)
    assert uri not in store


def test_traversal_uri_cannot_escape_save_directory(tmp_path):
    store = DocumentStore()
    with pytest.raises(XQueryDynamicError):
        store.put_text("../outside.xml", "<doc>escape</doc>")
    store.put_text("docs/safe.xml", "<doc>fine</doc>")
    target = tmp_path / "store"
    store.save(str(target))
    assert not (tmp_path / "outside.xml").exists()
    # nested manifest-named documents are fine; only the top-level store
    # name is reserved.
    store.put_text("docs/manifest.json.xml", "<doc>ok</doc>")


# -- incremental statistics ----------------------------------------------------


def test_fulltext_stats_are_live_views_not_rebuilds():
    store = make_store()
    stats = store.fulltext_stats()
    assert stats["doc_frequency"].get("alpha", 0) == 1
    assert stats["collection_docs"]["docs/"] == 2
    # a later write is visible through the *same* stats payload: the
    # views are backed by incrementally-maintained state, not a snapshot
    # materialized per write.
    store.put_text("docs/new.xml", "<doc>alpha alpha</doc>")
    assert stats["doc_frequency"].get("alpha", 0) == 2
    assert stats["collection_docs"]["docs/"] == 3
    store.remove("docs/a.xml")
    assert stats["doc_frequency"].get("alpha", 0) == 1
    assert stats["collection_docs"]["docs/"] == 2


def test_collection_counts_match_recount_after_mutations():
    store = make_store()
    store.put_text("docs/deep/deeper/x.xml", "<doc>x</doc>")
    store.put_text("docs/a.xml", "<doc>replaced, not added</doc>")
    store.remove("notes/c.xml")
    counts = store.fulltext_stats()["collection_docs"]
    for prefix in store.known_collections():
        expected = sum(1 for uri in store.uris() if uri.startswith(prefix))
        assert counts[prefix] == expected, prefix


def test_register_collections_makes_empty_collections_known():
    store = make_store()
    store.register_collections(["brand/", "brand/sub/"])
    assert store.collection_uris("brand/") == []
    assert store.collection_uris("brand/sub/") == []
    assert store.fulltext_stats()["collection_docs"]["brand/"] == 0


#: uris a prefix match can confuse: ``docs/`` next to ``docs2/`` and
#: ``docs-x.xml``, nested and top-level documents.
_URIS = [
    "docs/a.xml", "docs/b.xml", "docs/deep/c.xml", "docs2/a.xml",
    "docs-x.xml", "docs0.xml", "a.xml", "notes/n.xml", "notes/deep/m.xml",
]


def _assert_collections_hold(store, live):
    """For every known collection (``""`` among them), ``collection_uris``
    is the sorted live uris under its prefix."""
    assert "" in store.known_collections()
    for prefix in store.known_collections():
        expected = sorted(uri for uri in live if uri.startswith(prefix))
        assert store.collection_uris(prefix) == expected, prefix


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from(_URIS)), max_size=25))
def test_collection_uris_follow_random_writes_replica_and_open(writes):
    store = DocumentStore()
    live = set()
    for put, uri in writes:
        if put:
            store.put_text(uri, "<d>x</d>")
            live.add(uri)
        elif uri in live:
            store.remove(uri)
            live.discard(uri)
    _assert_collections_hold(store, live)
    _assert_collections_hold(store.replica(), live)
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        _assert_collections_hold(DocumentStore.open(directory), live)

