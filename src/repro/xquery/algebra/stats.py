"""Statistics catalog for the cost-based plan optimizer.

The paper's complaint is that a little language's *implementation* is
lopsided: a two-line FLWOR join runs in time quadratic in the document.
Closing that gap set-at-a-time needs cardinality estimates, and the place
those are cheapest to collect is export time — the AWB backend already
walks the whole model when it serializes, so a second O(document) pass per
export generation is noise.

The catalog stores exactly the three families of statistics the optimizer
consumes:

* per-name element counts (scan cardinality),
* child fan-out per element name (step cardinality),
* attribute selectivity per ``(element, attribute)`` pair — distinct-value
  counts, which rank candidate equi-join keys and order predicates.

The same walk also records the document's *shape* — parent→child element
edges and small attribute value domains — and, when the document is an
AWB export that actually conforms to :func:`~..analysis.schema.awb_export_schema`,
attaches that schema to the catalog.  A schema-bearing catalog licenses
the optimizer's semantics-affecting rewrites (pruning provably redundant
existence checks, singleton join keys); a document that fails conformance
simply gets ``schema = None`` and the optimizer falls back to pure
cost decisions.

When no catalog is available (ad-hoc queries against arbitrary documents)
``DEFAULT_STATS`` supplies deliberately bland priors; every decision the
optimizer takes with bare statistics is semantics-preserving, so bad
estimates cost time, never correctness.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...xdm import DocumentNode, ElementNode, Node

__all__ = ["StatisticsCatalog", "DEFAULT_STATS"]

#: value-domain sets larger than this are discarded (open domains carry no
#: pruning power and would bloat the catalog).
_DOMAIN_CAP = 32


class StatisticsCatalog:
    """Summary statistics over one document tree, collected in one walk."""

    __slots__ = (
        "total_elements",
        "element_counts",
        "child_fanout",
        "attr_distinct",
        "attr_present",
        "attr_domains",
        "schema",
        "generation",
        "fulltext",
        "_child_totals",
        "_attr_values",
        "_edge_counts",
        "_root_name",
    )

    def __init__(self, generation: Optional[int] = None):
        self.total_elements = 0
        #: element name -> number of elements with that name
        self.element_counts: Dict[str, int] = {}
        #: element name -> average number of element children
        self.child_fanout: Dict[str, float] = {}
        #: (element name, attribute name) -> distinct value count
        self.attr_distinct: Dict[Tuple[str, str], int] = {}
        #: (element name, attribute name) -> elements carrying the attribute
        self.attr_present: Dict[Tuple[str, str], int] = {}
        #: (element name, attribute name) -> observed value set, when small
        self.attr_domains: Dict[Tuple[str, str], frozenset] = {}
        #: the document's schema, when the walked tree provably conforms to
        #: one we know (currently: the AWB export schema).  None otherwise.
        self.schema = None
        self.generation = generation
        #: collection/full-text statistics (see :meth:`set_fulltext`), or
        #: None when no document store feeds this catalog.
        self.fulltext: Optional[Dict[str, object]] = None
        # exact underlying state the derived estimates are computed from —
        # persisted (not discarded after the walk) so maintain() can
        # add/subtract subtree contributions instead of re-walking.
        #: element name -> total element children across all instances
        self._child_totals: Dict[str, int] = {}
        #: (element name, attribute name) -> attribute value -> count
        self._attr_values: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: (parent name, child name) -> occurrence count
        self._edge_counts: Dict[Tuple[str, str], int] = {}
        #: the document root's element name (the parent of delta subtrees)
        self._root_name: Optional[str] = None

    @classmethod
    def from_root(
        cls, root: Node, generation: Optional[int] = None
    ) -> "StatisticsCatalog":
        """Collect statistics from a document (or element subtree) root."""
        catalog = cls(generation=generation)
        root_names = []
        tops = (
            [child for child in root.children if isinstance(child, ElementNode)]
            if isinstance(root, DocumentNode)
            else [root]
            if isinstance(root, ElementNode)
            else []
        )
        for top in tops:
            root_names.append(top.name)
            catalog._add_subtree(top)
        if root_names:
            catalog._root_name = root_names[0]
        catalog._refresh_derived()
        if root_names == ["awb-model"]:
            catalog._check_schema()
        return catalog

    # -- exact maintenance --------------------------------------------------

    def _add_subtree(self, element: ElementNode) -> None:
        """Add one element subtree's contributions, in one O(subtree) walk."""
        stack = [element]
        while stack:
            node = stack.pop()
            name = node.name
            self.total_elements += 1
            self.element_counts[name] = self.element_counts.get(name, 0) + 1
            # Building the lazy name indexes here primes them for the first
            # query against this document — the walk already visits every
            # node, so the executor's cold path never pays for index builds.
            element_children = 0
            for child_name, children in node._child_element_index().items():
                element_children += len(children)
                key = (name, child_name)
                self._edge_counts[key] = self._edge_counts.get(key, 0) + len(children)
                stack.extend(children)
            self._child_totals[name] = (
                self._child_totals.get(name, 0) + element_children
            )
            node._attribute_index()
            for attribute in node.attributes:
                key = (name, attribute.name)
                self.attr_present[key] = self.attr_present.get(key, 0) + 1
                counts = self._attr_values.setdefault(key, {})
                counts[attribute.value] = counts.get(attribute.value, 0) + 1

    def _remove_subtree(self, element: ElementNode) -> None:
        """Subtract one element subtree's contributions (inverse of add)."""
        stack = [element]
        while stack:
            node = stack.pop()
            name = node.name
            self.total_elements -= 1
            count = self.element_counts.get(name, 0) - 1
            if count > 0:
                self.element_counts[name] = count
            else:
                self.element_counts.pop(name, None)
            element_children = 0
            for child_name, children in node._child_element_index().items():
                element_children += len(children)
                key = (name, child_name)
                left = self._edge_counts.get(key, 0) - len(children)
                if left > 0:
                    self._edge_counts[key] = left
                else:
                    self._edge_counts.pop(key, None)
                stack.extend(children)
            total = self._child_totals.get(name, 0) - element_children
            if total > 0 or name in self.element_counts:
                self._child_totals[name] = max(total, 0)
            else:
                self._child_totals.pop(name, None)
            for attribute in node.attributes:
                key = (name, attribute.name)
                present = self.attr_present.get(key, 0) - 1
                if present > 0:
                    self.attr_present[key] = present
                else:
                    self.attr_present.pop(key, None)
                counts = self._attr_values.get(key)
                if counts is not None:
                    left = counts.get(attribute.value, 0) - 1
                    if left > 0:
                        counts[attribute.value] = left
                    else:
                        counts.pop(attribute.value, None)
                    if not counts:
                        self._attr_values.pop(key, None)

    def _refresh_derived(self) -> None:
        """Recompute the estimate maps from the exact underlying state.

        O(names + attribute keys + small-domain values) — independent of
        document size, so cheap enough to run after every delta batch.
        """
        self.child_fanout = {}
        for name, count in self.element_counts.items():
            total = self._child_totals.get(name, 0)
            self.child_fanout[name] = total / count if count else 0.0
        self.attr_distinct = {}
        self.attr_domains = {}
        for key, values in self._attr_values.items():
            self.attr_distinct[key] = len(values)
            if len(values) <= _DOMAIN_CAP:
                self.attr_domains[key] = frozenset(values)

    def _check_schema(self) -> None:
        # analysis.schema imports from xdm only, but the analysis
        # package __init__ pulls in the lint stack (which imports this
        # module back) — import lazily to stay acyclic.
        from ..analysis.schema import awb_export_schema

        candidate = awb_export_schema()
        if candidate.admits_observations(
            self.element_counts,
            set(self._edge_counts),
            self.attr_present,
            self.attr_domains,
        ):
            self.schema = candidate
        else:
            self.schema = None

    def maintain(self, pairs, generation: Optional[int] = None) -> None:
        """Maintain the catalog across subtree replacements.

        *pairs* is the incremental exporter's delta log: ``(old_element,
        new_element)`` tuples (``None`` for pure inserts/removals), every
        element a direct child of the document root.  Old contributions
        are subtracted and new ones added exactly, the root's own
        fan-out/edges move by the net change, the derived estimates are
        recomputed, and schema conformance is re-checked — so the value
        domains that check reads stay exact without an O(document)
        recollection.
        """
        for old, new in pairs:
            if old is not None:
                self._remove_subtree(old)
                self._shift_root_edge(old.name, -1)
            if new is not None:
                self._add_subtree(new)
                self._shift_root_edge(new.name, +1)
        self._refresh_derived()
        if self._root_name == "awb-model":
            self._check_schema()
        if generation is not None:
            self.generation = generation

    def _shift_root_edge(self, child_name: str, delta: int) -> None:
        root = self._root_name
        if root is None:
            return
        self._child_totals[root] = self._child_totals.get(root, 0) + delta
        key = (root, child_name)
        left = self._edge_counts.get(key, 0) + delta
        if left > 0:
            self._edge_counts[key] = left
        else:
            self._edge_counts.pop(key, None)

    # -- estimates the optimizer asks for ---------------------------------

    def element_count(self, name: Optional[str]) -> int:
        """Estimated number of elements named *name* (any element if None)."""
        if name is None:
            return max(self.total_elements, 1)
        return self.element_counts.get(name, _DEFAULT_COUNT if self.is_default else 0)

    def fanout(self, name: Optional[str]) -> float:
        """Average element-child fan-out of elements named *name*."""
        if name is not None and name in self.child_fanout:
            return self.child_fanout[name]
        return _DEFAULT_FANOUT

    def attribute_domain(self, element: str, attribute: str):
        """The full recorded value domain of ``element/@attribute``, or None.

        Only small domains (≤ the collection cap) are recorded; ``None``
        therefore means "unknown", not "empty".  A known domain is
        *exactly* the set of values present in the export: for
        ``("node", "type")``, the node types.
        """
        return self.attr_domains.get((element, attribute))

    def attr_distinct_count(self, element: Optional[str], attribute: str) -> int:
        """Distinct values of *attribute* on elements named *element*.

        The join-key ranking: a key with more distinct values builds a
        sparser hash table, so the optimizer prefers it.
        """
        if element is not None:
            exact = self.attr_distinct.get((element, attribute))
            if exact is not None:
                return exact
        by_attr = [
            count for (_, name), count in self.attr_distinct.items() if name == attribute
        ]
        if by_attr:
            return max(by_attr)
        return _DEFAULT_DISTINCT

    def attr_selectivity(self, element: Optional[str], attribute: str) -> float:
        """Fraction of elements an ``@attribute = value`` predicate keeps."""
        distinct = self.attr_distinct_count(element, attribute)
        total = self.element_count(element) if element else self.total_elements
        if total <= 0:
            total = _DEFAULT_COUNT
        if element is not None:
            present = self.attr_present.get((element, attribute))
            if present is not None and distinct:
                return min(1.0, (present / total) / distinct)
        return min(1.0, 1.0 / max(distinct, 1))

    @property
    def is_default(self) -> bool:
        return self.total_elements == 0 and not self.element_counts

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (used by explain and the service)."""
        return {
            "generation": self.generation,
            "schema": self.schema.name if self.schema is not None else None,
            "total_elements": self.total_elements,
            "element_counts": dict(self.element_counts),
            "child_fanout": {k: round(v, 3) for k, v in self.child_fanout.items()},
            "attr_distinct": {
                f"{element}/@{attribute}": count
                for (element, attribute), count in sorted(self.attr_distinct.items())
            },
        }

    # -- collection / full-text statistics ---------------------------------

    def set_fulltext(self, stats: Dict[str, object]) -> None:
        """Attach collection statistics for ``FullTextScan`` estimation.

        *stats* is a :meth:`repro.collections.DocumentStore.fulltext_stats`
        payload: ``total_docs``, ``collection_docs`` (prefix → member
        count), and ``doc_frequency`` (token → documents containing it).
        """
        self.fulltext = stats

    def fulltext_doc_count(self, collection: Optional[str]) -> Optional[int]:
        """Members of *collection* (None → the whole store), if known."""
        if self.fulltext is None:
            return None
        if collection is None:
            return int(self.fulltext.get("total_docs", 0))
        per_collection = self.fulltext.get("collection_docs", {})
        prefix = collection if collection in ("",) or collection.endswith("/") else collection + "/"
        if prefix in per_collection:
            return int(per_collection[prefix])
        return None

    def fulltext_estimate(
        self, collection: Optional[str], phrase: Optional[str]
    ) -> float:
        """Estimated hits for ``ft:search(collection, phrase)``.

        A phrase cannot match more documents than its rarest token's
        document frequency, so the estimate is ``min(df)`` over the
        phrase tokens, clamped by the collection's member count.  With
        no catalog data the prior is a small constant — enough to rank a
        FullTextScan far below an unindexed document scan.
        """
        members = self.fulltext_doc_count(collection)
        if self.fulltext is None or phrase is None:
            fallback = 8.0
            return float(min(members, fallback)) if members is not None else fallback
        from ...collections.fulltext import tokens_of  # deferred: no cycle at import

        tokens = tokens_of(phrase)
        if not tokens:
            return 0.0
        frequencies = self.fulltext.get("doc_frequency", {})
        rarest = min(int(frequencies.get(token, 0)) for token in tokens)
        if members is not None:
            rarest = min(rarest, members)
        return float(rarest)


_DEFAULT_COUNT = 100
_DEFAULT_FANOUT = 5.0
_DEFAULT_DISTINCT = 10

#: The prior used when no export-time catalog is available.
DEFAULT_STATS = StatisticsCatalog()
