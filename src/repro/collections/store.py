"""The persisted multi-document store behind ``fn:doc``/``fn:collection``.

A :class:`DocumentStore` maps URIs — POSIX-style relative paths such as
``docs/0001.xml`` — to parsed :class:`~repro.xdm.DocumentNode` trees.  A
*collection* is a ``/``-terminated URI prefix (``docs/``); a document
belongs to every ancestor collection, and ``""`` names the whole store.

Three document flavors coexist:

* plain XDM documents (``put_text``) — parsed once, the raw source kept
  for persistence and for replicating writes to the serving workers;
* AWB model exports (``put_model``) — backed by a live
  :class:`~repro.awb.Model` plus the update pipeline's
  :class:`~repro.awb.xml_io.IncrementalExporter`, so an update script
  applied through :meth:`apply_update` re-exports only dirty subtrees
  and re-indexes only that one document;
* persisted documents (``open``/``save``) — one file per URI under a
  directory, plus a ``manifest.json`` carrying the generation counter.

Every mutation bumps the global generation *and* the generation of each
ancestor collection; the service keys its result cache on the latter, so
a write to ``docs/a/`` leaves cached answers over ``notes/`` warm.  The
inverted index is maintained in the same mutation path — add/replace/
remove of one document's postings, never a corpus rebuild.

Missing or unparseable URIs raise :class:`XQueryDynamicError` with the
spec's ``FODC0002`` ("error retrieving resource"), which the service
taxonomy classifies as a structured dynamic error — including across the
process-worker pipe.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from ..awb import Model
from ..awb.xml_io import IncrementalExporter
from ..xdm import DocumentNode
from ..xmlio import parse_document, serialize
from ..xquery.errors import XQueryDynamicError
from ..xquery.updates.apply import apply_script
from .fulltext import InvertedIndex, count_phrase

__all__ = [
    "DocumentStore",
    "collection_prefixes",
    "normalize_collection",
    "validate_uri",
]

_MANIFEST = "manifest.json"


def validate_uri(uri: str) -> None:
    """Reject URIs that cannot be stored (or persisted) safely.

    ``save``/``open`` map URIs straight onto filesystem paths under the
    store directory, so a URI must be a clean relative POSIX path: no
    empty/``.``/``..`` segments (no escaping the directory), no leading
    slash, no backslashes, and not the reserved manifest name.
    """
    reason = None
    if not uri:
        reason = "empty"
    elif uri.startswith("/"):
        reason = "absolute path"
    elif uri.endswith("/"):
        reason = "trailing '/' names a collection, not a document"
    elif "\\" in uri:
        reason = "backslash"
    elif uri == _MANIFEST:
        reason = f"reserved store name {_MANIFEST!r}"
    elif any(segment in ("", ".", "..") for segment in uri.split("/")):
        reason = "empty, '.', or '..' path segment"
    if reason is not None:
        raise XQueryDynamicError(
            f"document URI {uri!r} is not storable: {reason}", code="FODC0002"
        )


def normalize_collection(uri: str) -> str:
    """Collection URIs are ``/``-terminated prefixes; ``""`` is everything."""
    uri = uri.strip()
    if uri in ("", "/"):
        return ""
    return uri if uri.endswith("/") else uri + "/"


def collection_prefixes(uri: str) -> List[str]:
    """Every ancestor collection of a document URI, outermost first.

    ``a/b/c.xml`` → ``["", "a/", "a/b/"]``.
    """
    prefixes = [""]
    position = uri.find("/")
    while position != -1:
        prefixes.append(uri[: position + 1])
        position = uri.find("/", position + 1)
    return prefixes


def _missing(uri: str) -> XQueryDynamicError:
    return XQueryDynamicError(
        f"document {uri!r} is not available", code="FODC0002"
    )


class DocumentStore:
    """URI-addressed documents + collections + the full-text index."""

    def __init__(self, use_index: bool = True):
        #: when False, ``search`` takes the brute-force document-scan path
        #: (the differential oracle and E22 toggle this; results must be
        #: byte-identical either way).
        self.use_index = use_index
        self.index = InvertedIndex()
        self.generation = 0
        self._docs: Dict[str, DocumentNode] = {}
        #: raw XML per URI — persistence + write replication.
        self._texts: Dict[str, str] = {}
        #: model-backed documents: live model + its incremental exporter.
        self._models: Dict[str, Tuple[Model, IncrementalExporter]] = {}
        self._uri_by_doc: Dict[int, str] = {}
        #: collection prefix → generation of the last write under it.
        self._collection_gens: Dict[str, int] = {"": 0}
        #: document URI → generation of its last write (or delete).
        self._uri_gens: Dict[str, int] = {}

    # -- mutation ----------------------------------------------------------

    def put_text(self, uri: str, text: str) -> DocumentNode:
        """Parse and store *text* under *uri* (replacing any previous doc).

        An unparseable document is a resource-retrieval failure: the spec
        code is ``FODC0002``, same as a missing URI, so the error is
        structured wherever it surfaces (lint, service, worker pipe).
        """
        try:
            document = parse_document(text)
        except Exception as exc:
            raise XQueryDynamicError(
                f"document {uri!r} is not parseable: {exc}", code="FODC0002"
            ) from exc
        self._models.pop(uri, None)
        self._install(uri, document, text)
        return document

    def put_model(self, uri: str, model: Model) -> DocumentNode:
        """Store a live AWB model's export under *uri*.

        The document stays bound to the model through the update
        pipeline's incremental exporter: :meth:`apply_update` re-exports
        dirty subtrees instead of rebuilding, and only this URI's index
        postings are replaced.
        """
        exporter = IncrementalExporter(model)
        document = exporter.export()
        self._install(uri, document, serialize(document))
        self._models[uri] = (model, exporter)
        return document

    def apply_update(self, uri: str, script: str, check: str = "error"):
        """Run one update-language script against a model-backed document.

        Returns the :class:`~repro.xquery.updates.apply.UpdateResult`.
        The write path is incremental end to end: the exporter patches
        dirty subtrees, and the index replaces this document's postings
        only — the other N-1 documents' postings are untouched.
        """
        entry = self._models.get(uri)
        if entry is None:
            raise _missing(uri)
        model, exporter = entry
        result = apply_script(script, model, check=check)
        document = exporter.export()
        self._install(uri, document, serialize(document))
        self._models[uri] = (model, exporter)
        return result

    def remove(self, uri: str) -> None:
        """Delete *uri*; its collections stay known (and get a new generation)."""
        document = self._docs.pop(uri, None)
        if document is None:
            raise _missing(uri)
        self._texts.pop(uri, None)
        self._models.pop(uri, None)
        self._uri_by_doc.pop(id(document), None)
        self.index.remove(uri)
        self._bump(uri)

    def _install(
        self,
        uri: str,
        document: DocumentNode,
        text: str,
        postings: Optional[InvertedIndex] = None,
    ) -> None:
        """Store *document* under *uri* and index it: tokenized afresh, or
        adopted from the *postings* of another index holding *uri*."""
        validate_uri(uri)
        previous = self._docs.get(uri)
        if previous is not None:
            self._uri_by_doc.pop(id(previous), None)
        self._docs[uri] = document
        self._texts[uri] = text
        self._uri_by_doc[id(document)] = uri
        if postings is None:
            self.index.add(uri, document.string_value())
        else:
            self.index.adopt(uri, postings)
        self._bump(uri)

    def _bump(self, uri: str) -> None:
        self.generation += 1
        self._uri_gens[uri] = self.generation
        for prefix in collection_prefixes(uri):
            self._collection_gens[prefix] = self.generation

    # -- lookup ------------------------------------------------------------

    def get(self, uri: str) -> Optional[DocumentNode]:
        return self._docs.get(uri)

    def resolve(self, uri: str) -> DocumentNode:
        document = self._docs.get(uri)
        if document is None:
            raise _missing(uri)
        return document

    def __contains__(self, uri: str) -> bool:
        return uri in self._docs

    def __len__(self) -> int:
        return len(self._docs)

    def uris(self) -> List[str]:
        return sorted(self._docs)

    def uri_of(self, document: DocumentNode) -> str:
        """The URI a stored document lives under (FODC0002 if unknown)."""
        uri = self._stored_uri(document)
        if uri is None:
            raise XQueryDynamicError(
                "node does not belong to a stored document", code="FODC0002"
            )
        return uri

    def _stored_uri(self, node) -> Optional[str]:
        """The URI *node* is stored under if it is a stored document itself
        (an identity check, so a copy or a descendant answers None)."""
        uri = self._uri_by_doc.get(id(node))
        return uri if uri is not None and self._docs.get(uri) is node else None

    def text_of(self, uri: str) -> str:
        text = self._texts.get(uri)
        if text is None:
            raise _missing(uri)
        return text

    def model_of(self, uri: str) -> Model:
        entry = self._models.get(uri)
        if entry is None:
            raise _missing(uri)
        return entry[0]

    # -- collections -------------------------------------------------------

    def collection_uris(self, collection: str = "") -> List[str]:
        """Member URIs of *collection*, sorted (FODC0002 if unknown).

        A collection is *known* once any document has ever been written
        under it; deleting every member leaves an empty — not missing —
        collection, so readers racing writers see ``()`` rather than an
        error flicker.
        """
        prefix = normalize_collection(collection)
        if prefix not in self._collection_gens:
            raise XQueryDynamicError(
                f"collection {collection!r} is not available", code="FODC0002"
            )
        return sorted(uri for uri in self._docs if uri.startswith(prefix))

    def collection(self, collection: str = "") -> List[Tuple[str, DocumentNode]]:
        return [(uri, self._docs[uri]) for uri in self.collection_uris(collection)]

    def collection_generation(self, collection: str = "") -> int:
        prefix = normalize_collection(collection)
        return self._collection_gens.get(prefix, 0)

    def document_generation(self, uri: str) -> int:
        return self._uri_gens.get(uri, 0)

    # -- search ------------------------------------------------------------

    def search(self, collection: str, phrase: str) -> List[Tuple[str, int]]:
        """``(uri, score)`` ordered by score desc then uri — deterministic.

        Score is the phrase occurrence count.  ``use_index`` picks the
        postings path or the brute-force scan over every member; the two
        are differentially pinned to identical output.
        """
        members = self.collection_uris(collection)
        if self.use_index:
            scores = self.index.search(phrase)
            hits = [(uri, scores[uri]) for uri in members if uri in scores]
        else:
            hits = []
            for uri in members:
                score = count_phrase(self._docs[uri].string_value(), phrase)
                if score:
                    hits.append((uri, score))
        hits.sort(key=lambda hit: (-hit[1], hit[0]))
        return hits

    def score(self, node, phrase: str) -> int:
        """``ft:score``: occurrences of *phrase* in *node*'s string value.

        A stored document read with ``use_index`` on is counted from its
        postings; anything else (a constructed node, an element, the scan
        mode) is tokenized afresh by :func:`count_phrase`, the reference.
        """
        uri = self._stored_uri(node) if self.use_index else None
        if uri is not None:
            return self.index.count(uri, phrase)
        return count_phrase(node.string_value(), phrase)

    def fulltext_stats(self) -> Dict[str, object]:
        """Catalog food for ``explain``'s ``FullTextScan`` estimate,
        counted now: ``total_docs``, ``collection_docs`` (every known
        collection → its member count) and ``doc_frequency`` (token →
        documents containing it).

        Document frequencies come from the index even when ``use_index``
        is off — the estimate only feeds the plan display, not the result.
        """
        members = dict.fromkeys(self._collection_gens, 0)
        for uri in self._docs:
            for prefix in collection_prefixes(uri):
                members[prefix] += 1
        return {
            "total_docs": len(self._docs),
            "collection_docs": members,
            "doc_frequency": self.index.document_frequencies(),
        }

    # -- replication -------------------------------------------------------

    def replica(self) -> "DocumentStore":
        """A new store holding every document and collection of this one.

        A text document is shared, not re-parsed: the replica installs
        this store's tree, raw text and postings, none of which any store
        mutates in place.  A model-backed document is parsed afresh from
        its text (as a plain text document), because its exporter patches
        its tree in place.  Every known collection is carried over, so a
        collection whose members were all deleted answers ``()`` in the
        replica too, instead of FODC0002.
        """
        replica = DocumentStore(use_index=self.use_index)
        for uri in sorted(self._docs):
            text = self._texts[uri]
            if uri in self._models:
                replica.put_text(uri, text)
            else:
                replica._install(uri, self._docs[uri], text, self.index)
        replica.register_collections(self._collection_gens)
        return replica

    def texts(self) -> List[Tuple[str, str]]:
        """``(uri, raw xml)`` pairs, in uri order."""
        return [(uri, self._texts[uri]) for uri in sorted(self._docs)]

    def known_collections(self) -> List[str]:
        return sorted(self._collection_gens)

    def register_collections(self, prefixes: Iterable[str]) -> None:
        """Make *prefixes* known (empty, generation 0) without a write.

        :meth:`open` carries a saved store's known collections over with
        this, and :meth:`replica` its source's, so an emptied collection
        answers ``()`` instead of FODC0002.
        """
        for prefix in prefixes:
            self._collection_gens.setdefault(prefix, 0)

    # -- persistence -------------------------------------------------------

    def save(self, directory: str) -> None:
        """Write one file per document plus ``manifest.json``."""
        os.makedirs(directory, exist_ok=True)
        for uri in self.uris():
            path = os.path.join(directory, *uri.split("/"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self._texts[uri])
        manifest = {
            "generation": self.generation,
            "uris": self.uris(),
            "collections": self.known_collections(),
        }
        with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)

    @classmethod
    def open(cls, directory: str, use_index: bool = True) -> "DocumentStore":
        """Load a saved store; without a manifest, scan for ``*.xml`` files.

        A file that does not parse raises ``FODC0002`` naming its URI —
        the structured flavor of "error retrieving resource".
        """
        store = cls(use_index=use_index)
        manifest_path = os.path.join(directory, _MANIFEST)
        manifest: Dict[str, object] = {}
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            uris = list(manifest.get("uris", []))
        else:
            uris = []
            for root, _dirs, files in os.walk(directory):
                for name in files:
                    if not name.endswith(".xml"):
                        continue
                    path = os.path.join(root, name)
                    uris.append(os.path.relpath(path, directory).replace(os.sep, "/"))
            uris.sort()
        for uri in uris:
            path = os.path.join(directory, *uri.split("/"))
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise XQueryDynamicError(
                    f"document {uri!r} is not available: {exc}", code="FODC0002"
                ) from exc
            store.put_text(uri, text)
        store.register_collections(manifest.get("collections", []))
        store.generation = max(store.generation, int(manifest.get("generation", 0)))
        return store

    def stats(self) -> Dict[str, object]:
        return {
            "documents": len(self._docs),
            "model_backed": len(self._models),
            "collections": len(self._collection_gens),
            "generation": self.generation,
            "index": self.index.stats(),
            "use_index": self.use_index,
        }
