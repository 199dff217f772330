"""The inverted index: phrase semantics + the maintenance property test.

The load-bearing property: after any history of writes — including
update-language scripts taking the incremental model→export→index path —
the maintained index's canonical snapshot equals a from-scratch rebuild
over the store's current texts.  That is the invariant that lets writes
skip corpus rebuilds forever.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collections import DocumentStore, InvertedIndex, count_phrase, tokenize
from repro.testing.models import (
    FT_WORDS,
    random_document_store,
    random_phrase,
    random_update_script,
)


def test_tokenize_casefolds_and_offsets():
    triples = tokenize("Alpha, BETA čaj")
    assert [t for t, _, _ in triples] == ["alpha", "beta", "čaj"]
    text = "Alpha, BETA čaj"
    for token, start, end in triples:
        assert text[start:end].casefold() == token


def test_single_token_and_phrase_search():
    index = InvertedIndex.rebuild(
        [
            ("a.xml", "alpha beta gamma alpha"),
            ("b.xml", "beta alpha beta alpha beta"),
            ("c.xml", "gamma delta"),
        ]
    )
    assert index.search("alpha") == {"a.xml": 2, "b.xml": 2}
    assert index.search("alpha beta") == {"a.xml": 1, "b.xml": 2}
    # overlapping occurrences all count: tokens 0-2 and 2-4 both match.
    assert index.search("beta alpha beta") == {"b.xml": 2}
    assert index.search("missing") == {}
    assert index.search("") == {}
    assert index.document_frequency("beta") == 2
    assert index.document_frequency("BETA") == 2  # casefolded lookup


def test_phrase_counts_match_brute_force_on_random_text():
    rng = random.Random(5)
    for _ in range(200):
        text = " ".join(rng.choice(FT_WORDS[:4]) for _ in range(rng.randrange(0, 15)))
        phrase = random_phrase(rng)
        index = InvertedIndex.rebuild([("d.xml", text)])
        expected = count_phrase(text, phrase)
        assert index.search(phrase).get("d.xml", 0) == expected, (text, phrase)


#: tokens whose casefolds collide, repeats that overlap, and punctuation.
_SCORE_WORDS = ["a", "A", "b", "Straße", "STRASSE", "strasse", "京都", "naïve", "-", "!!", ","]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_SCORE_WORDS), max_size=14), min_size=1, max_size=4),
    st.lists(st.sampled_from(_SCORE_WORDS), max_size=4),
    st.sampled_from([" ", "", ", "]),
)
def test_count_equals_count_phrase(documents, phrase_words, separator):
    """``InvertedIndex.count`` — what ``ft:score`` reads for a stored
    document — equals the reference scan for every document and phrase."""
    texts = [(f"d{i}.xml", " ".join(words)) for i, words in enumerate(documents)]
    index = InvertedIndex.rebuild(texts)
    phrase = separator.join(phrase_words)
    for uri, text in texts:
        assert index.count(uri, phrase) == count_phrase(text, phrase), (text, phrase)
        assert index.count(uri, phrase) == index.search(phrase).get(uri, 0)


@pytest.mark.parametrize(
    "text,phrase,expected",
    [
        ("a a a", "a a", 2),
        ("a b a b a", "a b a", 2),
        ("Straße im Schnee", "STRASSE", 1),
        ("strasse STRASSE Straße", "straße", 3),
        ("a b", "", 0),
        ("a b", "!! ,", 0),
        ("a b", "b a", 0),
        ("a b", "c", 0),
    ],
)
def test_count_corner_cases(text, phrase, expected):
    index = InvertedIndex.rebuild([("d.xml", text), ("e.xml", "a a b")])
    assert index.count("d.xml", phrase) == count_phrase(text, phrase) == expected
    assert index.count("missing.xml", phrase) == 0


def test_add_replaces_and_remove_is_o_doc():
    index = InvertedIndex()
    index.add("a.xml", "alpha beta")
    index.add("b.xml", "alpha gamma")
    index.add("a.xml", "delta only")  # replace: old postings must vanish
    assert index.search("beta") == {}
    assert index.search("delta") == {"a.xml": 1}
    index.remove("b.xml")
    assert index.search("alpha") == {}
    assert index.doc_count == 1
    index.remove("never-there.xml")  # no-op, not an error
    assert index.doc_count == 1


def test_snapshot_is_order_independent():
    forward = InvertedIndex()
    forward.add("a.xml", "alpha beta")
    forward.add("b.xml", "beta gamma")
    backward = InvertedIndex()
    backward.add("b.xml", "beta gamma")
    backward.add("a.xml", "alpha beta")
    assert forward.snapshot() == backward.snapshot()


def _rebuilt(store: DocumentStore) -> InvertedIndex:
    return InvertedIndex.rebuild(
        (uri, store.resolve(uri).string_value()) for uri in store.uris()
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_incremental_index_equals_rebuild_after_random_updates(seed):
    """The tentpole property: random update scripts through the PR 9
    incremental pipeline leave the maintained index identical to a
    from-scratch rebuild — and never trigger a corpus rebuild."""
    rng = random.Random(seed)
    store = random_document_store(seed, docs=14)
    model_uris = [uri for uri in store.uris() if uri.startswith("models/")]
    assert model_uris, "the generated store must carry model-backed docs"
    docs = len(store)
    for step in range(30):
        roll = rng.random()
        ops_before = store.index.maintenance_ops
        if roll < 0.45:
            # the incremental pipeline: script → patched export → re-index
            uri = rng.choice(model_uris)
            store.apply_update(uri, random_update_script(rng, store.model_of(uri)))
        elif roll < 0.75:
            words = " ".join(rng.choice(FT_WORDS) for _ in range(rng.randrange(1, 9)))
            store.put_text(f"docs/gen{rng.randrange(0, 6)}.xml", f"<d>{words}</d>")
        elif len(store) > len(model_uris):
            victim = rng.choice([u for u in store.uris() if u not in model_uris])
            store.remove(victim)
        else:
            continue
        # each write maintains O(1) documents' postings, never the corpus:
        # a replace is remove+add (2 ops), a delete or fresh add is 1.
        assert store.index.maintenance_ops - ops_before <= 2
        assert store.index.snapshot() == _rebuilt(store).snapshot(), f"step {step}"
    assert docs  # the loop really ran against a populated store


def test_update_script_changes_are_searchable_immediately():
    store = random_document_store(3, docs=10)
    uri = next(u for u in store.uris() if u.startswith("models/"))
    model = store.model_of(uri)
    # the inner spaces keep "zzyzx" an isolated token even though the
    # export's string-value concatenates adjacent text runs.
    store.apply_update(uri, 'insert node Document with (label "pad zzyzx pad");')
    assert "zzyzx" in store.resolve(uri).string_value()
    assert store.search("models/", "zzyzx") == [(uri, 1)]
    assert model.nodes  # still the live model behind the document
