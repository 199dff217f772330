"""Full-text builtins across every backend, indexed and brute-force.

The conformance pin: ``fn:doc``/``fn:collection``/``ft:*`` answer
byte-identically on treewalk and algebra, with the inverted
index on or off — plus the algebra-only surface (the ``FullTextScan``
operator and its catalog-backed selectivity) and a fixed-seed mini fuzz
campaign over the collection productions.
"""

import pytest

from repro.collections import DocumentStore
from repro.testing.fuzz import run_campaign
from repro.xquery import XQueryEngine
from repro.xquery.algebra.stats import StatisticsCatalog
from repro.xquery.api import BACKENDS, serialize_result
from repro.xquery.errors import XQueryDynamicError


@pytest.fixture()
def store():
    store = DocumentStore()
    store.put_text("docs/a.xml", "<doc><p>alpha beta gamma</p> <p>alpha beta</p></doc>")
    store.put_text("docs/b.xml", "<doc>beta alpha beta kappa</doc>")
    store.put_text("notes/c.xml", "<note>alpha beta at the start</note>")
    store.put_text("docs/empty.xml", "<doc>omega only</doc>")
    return store


def all_backend_runs(source, store):
    """Serialized results for every (backend, index-mode) combination."""
    engine = XQueryEngine()
    compiled = engine.compile(source)
    outputs = {}
    for use_index in (True, False):
        store.use_index = use_index
        for backend in BACKENDS:
            key = f"{backend}-{'indexed' if use_index else 'scan'}"
            outputs[key] = serialize_result(
                compiled.run(backend=backend, collections=store)
            )
    store.use_index = True
    return outputs


@pytest.mark.parametrize(
    "source",
    [
        'for $d in ft:search("docs/", "alpha beta") return'
        ' <hit uri="{ft:uri($d)}" score="{ft:score($d, "alpha beta")}"/>',
        'count(ft:search("alpha"))',
        'for $d in fn:collection("docs/") return element m'
        " { attribute uri { ft:uri($d) } }",
        'count(fn:collection())',
        'for $d in ft:search("", "alpha beta") return'
        ' for $s in ft:kwic($d, "alpha beta", 12) return <s>{$s}</s>',
        'string(fn:doc("notes/c.xml"))',
        'fn:doc-available("docs/a.xml"), fn:doc-available("nope.xml")',
    ],
)
def test_backends_and_index_modes_agree(source, store):
    outputs = all_backend_runs(source, store)
    assert len(set(outputs.values())) == 1, outputs


def test_search_results_ordered_by_score_then_uri(store):
    got = serialize_result(
        XQueryEngine().evaluate(
            'for $d in ft:search("docs/", "alpha beta") return ft:uri($d)',
            collections=store,
        )
    )
    # docs/a.xml scores 2, docs/b.xml scores 1; empty.xml never appears.
    assert got == "docs/a.xml docs/b.xml"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "argument,use_index,reads,score",
    [
        ('fn:doc("docs/b.xml")', True, "postings", 1),
        ('"docs/b.xml"', True, "postings", 1),
        ('fn:doc("docs/b.xml")', False, "scan", 1),
        ('fn:doc("docs/b.xml")/doc', True, "scan", 1),
        ('fn:doc("docs/empty.xml")', True, "postings", 0),
        ("<doc>alpha beta alpha beta</doc>", True, "scan", 2),
        ("document { <doc>alpha beta alpha beta</doc> }", True, "scan", 2),
    ],
)
def test_ft_score_reads_the_postings_only_for_a_stored_document(
    store, monkeypatch, backend, argument, use_index, reads, score
):
    """A stored document, indexed, is counted from the postings; a
    constructed node, an element and the scan mode keep ``count_phrase``."""
    from repro.collections import store as store_module
    from repro.collections.fulltext import InvertedIndex

    calls = []
    count, scan = InvertedIndex.count, store_module.count_phrase
    monkeypatch.setattr(
        InvertedIndex, "count", lambda *args: calls.append("postings") or count(*args)
    )
    monkeypatch.setattr(
        store_module, "count_phrase", lambda *args: calls.append("scan") or scan(*args)
    )
    store.use_index = use_index
    result = XQueryEngine().compile(f'ft:score({argument}, "alpha beta")').run(
        backend=backend, collections=store
    )
    assert result == [score]
    assert calls == [reads]


def test_missing_doc_is_fodc0002_in_every_backend(store):
    engine = XQueryEngine()
    compiled = engine.compile('fn:doc("missing.xml")')
    for backend in BACKENDS:
        with pytest.raises(XQueryDynamicError) as caught:
            compiled.run(backend=backend, collections=store)
        assert caught.value.code == "FODC0002"


def test_no_store_in_context_is_fodc0002():
    engine = XQueryEngine()
    for source in ('fn:collection()', 'ft:search("x")'):
        with pytest.raises(XQueryDynamicError) as caught:
            engine.evaluate(source)
        assert caught.value.code == "FODC0002"


def test_unknown_collection_is_fodc0002_everywhere(store):
    compiled = XQueryEngine().compile('fn:collection("never/")')
    for backend in BACKENDS:
        with pytest.raises(XQueryDynamicError) as caught:
            compiled.run(backend=backend, collections=store)
        assert caught.value.code == "FODC0002"


def test_explain_shows_full_text_scan_with_catalog_estimate(store):
    stats = StatisticsCatalog()
    stats.set_fulltext(store.fulltext_stats())
    compiled = XQueryEngine().compile(
        'for $d in ft:search("docs/", "alpha beta") return ft:uri($d)'
    )
    text = compiled.explain(statistics=stats)["text"]
    assert "FullTextScan[docs/ ~ 'alpha beta']" in text
    # min document frequency of the phrase tokens, clamped by the
    # collection's member count: 3 docs under docs/ hold "alpha".
    assert "~3 rows" in text


def test_fulltext_estimate_semantics(store):
    stats = StatisticsCatalog()
    stats.set_fulltext(store.fulltext_stats())
    assert stats.fulltext_estimate("docs/", "alpha beta") == 3.0
    assert stats.fulltext_estimate("docs/", "nonexistent-token") == 0.0
    assert stats.fulltext_estimate("docs/", "") == 0.0
    # an unknown collection still gets the whole-store df bound.
    assert stats.fulltext_estimate("never/", "alpha") == 3.0
    # without any catalog food at all: the same prior, not a crash.
    assert StatisticsCatalog().fulltext_estimate("docs/", "alpha") == pytest.approx(8.0)


def test_unindexed_fallback_plan_for_dynamic_args(store):
    # a non-literal collection argument still lowers to FullTextScan
    # (collection=None renders as '?'), and still runs correctly.
    engine = XQueryEngine()
    source = 'for $c in ("docs/", "notes/") return count(ft:search($c, "alpha"))'
    compiled = engine.compile(source)
    for backend in BACKENDS:
        got = serialize_result(compiled.run(backend=backend, collections=store))
        assert got == "2 1"


def test_mini_collection_fuzz_campaign_is_clean():
    """A fixed-seed differential campaign over the collection productions;
    nothing is allowlisted, so any divergence fails."""
    stats = run_campaign(20040522, 40, kinds=("collection",), serving=False)
    assert stats.by_kind.get("collection") == 40
    assert stats.unallowlisted == [], [d.describe() for d in stats.divergences]
    assert stats.divergences == []  # no allowlisted ones either
