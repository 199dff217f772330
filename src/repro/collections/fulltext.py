"""Tokenizer, positional inverted index, and the brute-force phrase scan.

The index is the eXist-db shape: token → document → sorted positions
(token ordinals, not character offsets), so a multi-token phrase is an
adjacency join over position lists.  Scoring is deliberately the dumbest
thing that is *deterministic and document-local*: the number of phrase
occurrences in the document.  No idf, no length normalization — a
collection-frequency score would make a document's score depend on the
rest of the corpus and break the indexed-vs-brute-force byte-identity
the oracle pins.

Everything the index answers is also answerable by :func:`count_phrase`
over the raw text; the differential oracle and E22 hold the two paths to
byte-identical results.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "InvertedIndex",
    "count_phrase",
    "phrase_positions",
    "tokenize",
    "tokens_of",
]

#: ``\w+`` under ``re.UNICODE``: letters (any script), digits, underscore.
#: Python strings are code points, so multi-byte characters tokenize the
#: same way regardless of their UTF-8 length.
_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def tokenize(text: str) -> List[Tuple[str, int, int]]:
    """``(token, start, end)`` triples; tokens are casefolded.

    ``start``/``end`` are character offsets into *text* (KWIC needs them);
    casefolding rather than ``lower()`` so e.g. ``"Straße"`` matches
    ``"STRASSE"`` the way a search user expects.
    """
    return [
        (match.group().casefold(), match.start(), match.end())
        for match in _TOKEN_RE.finditer(text)
    ]


def tokens_of(text: str) -> List[str]:
    """Just the casefolded tokens, in order."""
    return [token.casefold() for token in _TOKEN_RE.findall(text)]


def phrase_positions(tokens: List[str], phrase_tokens: List[str]) -> List[int]:
    """Start ordinals (token indexes) where *phrase_tokens* occurs.

    Overlapping occurrences all count: ``a a a`` contains ``a a`` twice.
    """
    if not phrase_tokens:
        return []
    k = len(phrase_tokens)
    return [
        i
        for i in range(len(tokens) - k + 1)
        if tokens[i : i + k] == phrase_tokens
    ]


def count_phrase(text: str, phrase: str) -> int:
    """Occurrences of *phrase* in *text* — the index-free reference path."""
    return len(phrase_positions(tokens_of(text), tokens_of(phrase)))


class InvertedIndex:
    """Positional inverted index over ``uri → text``, incrementally kept.

    ``add``/``adopt``/``remove`` touch only the named document's
    postings — O(document), never O(corpus) — which is the property the
    rebuild-vs-incremental property test pins after random update
    scripts.  No step mutates a position list once it is indexed, so
    :meth:`adopt` can share them between indexes.
    """

    __slots__ = ("_postings", "_doc_terms", "maintenance_ops")

    def __init__(self) -> None:
        #: token → uri → sorted token ordinals where the token occurs
        self._postings: Dict[str, Dict[str, List[int]]] = {}
        #: uri → the distinct tokens it contributed (for O(doc) removal)
        self._doc_terms: Dict[str, Tuple[str, ...]] = {}
        #: incremental add/adopt/remove operations applied (observability)
        self.maintenance_ops = 0

    # -- maintenance -------------------------------------------------------

    def add(self, uri: str, text: str) -> None:
        """Index *uri*; replaces any previous postings for it."""
        if uri in self._doc_terms:
            self.remove(uri)
        by_token: Dict[str, List[int]] = {}
        for position, token in enumerate(_TOKEN_RE.findall(text)):
            token = token.casefold()
            positions = by_token.get(token)
            if positions is None:
                by_token[token] = [position]
            else:
                positions.append(position)
        self._insert(uri, by_token)

    def adopt(self, uri: str, source: "InvertedIndex") -> None:
        """Index *uri* with *source*'s postings for it; replaces any previous
        postings.  Each position list is taken by reference, not copied."""
        if uri in self._doc_terms:
            self.remove(uri)
        postings = source._postings
        self._insert(uri, {token: postings[token][uri] for token in source._doc_terms[uri]})

    def _insert(self, uri: str, by_token: Dict[str, List[int]]) -> None:
        postings = self._postings
        for token, positions in by_token.items():
            entry = postings.get(token)
            if entry is None:
                postings[token] = {uri: positions}
            else:
                entry[uri] = positions
        self._doc_terms[uri] = tuple(by_token)
        self.maintenance_ops += 1

    def remove(self, uri: str) -> None:
        """Drop *uri*'s postings; a no-op for an unindexed uri."""
        terms = self._doc_terms.pop(uri, None)
        if terms is None:
            return
        for token in terms:
            entry = self._postings.get(token)
            if entry is not None:
                entry.pop(uri, None)
                if not entry:
                    del self._postings[token]
        self.maintenance_ops += 1

    @classmethod
    def rebuild(cls, texts: Iterable[Tuple[str, str]]) -> "InvertedIndex":
        """A fresh index over ``(uri, text)`` pairs — the from-scratch path."""
        index = cls()
        for uri, text in texts:
            index.add(uri, text)
        return index

    # -- queries -----------------------------------------------------------

    def search(self, phrase: str) -> Dict[str, int]:
        """``uri → occurrence count`` for documents containing *phrase*."""
        phrase_tokens = tokens_of(phrase)
        if not phrase_tokens:
            return {}
        first = self._postings.get(phrase_tokens[0])
        if first is None:
            return {}
        if len(phrase_tokens) == 1:
            return {uri: len(positions) for uri, positions in first.items()}
        # adjacency join: candidates must hold every token, then positions
        # must line up consecutively.
        candidates = set(first)
        for token in phrase_tokens[1:]:
            entry = self._postings.get(token)
            if entry is None:
                return {}
            candidates &= set(entry)
            if not candidates:
                return {}
        scores: Dict[str, int] = {}
        for uri in candidates:
            occurrences = self._join(uri, phrase_tokens)
            if occurrences:
                scores[uri] = occurrences
        return scores

    def count(self, uri: str, phrase: str) -> int:
        """Occurrences of *phrase* in *uri*: :meth:`search`'s answer for one
        document, equal to :func:`count_phrase` over its indexed text."""
        phrase_tokens = tokens_of(phrase)
        if not phrase_tokens:
            return 0
        return self._join(uri, phrase_tokens)

    def _join(self, uri: str, phrase_tokens: List[str]) -> int:
        """The adjacency join in one document: starts where every phrase
        token sits at its offset from the first."""
        starts = None
        for offset, token in enumerate(phrase_tokens):
            positions = self._postings.get(token, {}).get(uri)
            if positions is None:
                return 0
            if starts is None:
                starts = set(positions)
            else:
                starts &= {position - offset for position in positions}
            if not starts:
                return 0
        return len(starts)

    def document_frequency(self, token: str) -> int:
        entry = self._postings.get(token.casefold())
        return len(entry) if entry is not None else 0

    def document_frequencies(self) -> Dict[str, int]:
        """Every token → the number of documents containing it."""
        return {token: len(entry) for token, entry in self._postings.items()}

    @property
    def doc_count(self) -> int:
        return len(self._doc_terms)

    @property
    def term_count(self) -> int:
        return len(self._postings)

    # -- identity ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Tuple[int, ...]]]:
        """A canonical, order-independent image of the postings.

        The property test compares the incrementally-maintained index's
        snapshot against a from-scratch rebuild's — dict insertion order
        (which differs between the two histories) must not leak in.
        """
        return {
            token: {uri: tuple(positions) for uri, positions in sorted(entry.items())}
            for token, entry in sorted(self._postings.items())
        }

    def stats(self) -> Dict[str, int]:
        return {
            "documents": self.doc_count,
            "terms": self.term_count,
            "maintenance_ops": self.maintenance_ops,
        }
