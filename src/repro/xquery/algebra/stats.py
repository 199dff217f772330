"""Statistics catalog for the estimates ``explain`` prints.

The plan that runs never reads statistics: lowering fixes it (see
:mod:`.lowering`).  ``explain`` collects a catalog on demand, in one walk
over the document it explains against, and :mod:`.optimize` turns it into
the ``est_rows`` and ``[occ=...]`` marks of the rendered plan.

The catalog stores three families of statistics:

* per-name element counts (scan cardinality),
* child fan-out per element name (step cardinality),
* attribute selectivity per ``(element, attribute)`` pair — distinct-value
  counts and presence.

The same walk also records the document's *shape* — parent→child element
edges and small attribute value domains — and, when the document is an
AWB export that actually conforms to :func:`~..analysis.schema.awb_export_schema`,
attaches that schema to the catalog.  A schema-bearing catalog lets the
estimates prove a path dead (``occ=empty``); a document that fails
conformance simply gets ``schema = None``.

When no catalog is available (ad-hoc queries against arbitrary documents)
``DEFAULT_STATS`` supplies deliberately bland priors.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...xdm import DocumentNode, ElementNode, Node
from ..analysis.schema import awb_export_schema

__all__ = ["StatisticsCatalog", "DEFAULT_STATS"]

#: value-domain sets larger than this are discarded (open domains prove
#: nothing and would bloat the catalog).
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

    @classmethod
    def from_root(
        cls, root: Node, generation: Optional[int] = None
    ) -> "StatisticsCatalog":
        """Collect statistics from a document (or element subtree) root."""
        catalog = cls(generation=generation)
        tops = (
            [child for child in root.children if isinstance(child, ElementNode)]
            if isinstance(root, DocumentNode)
            else [root]
            if isinstance(root, ElementNode)
            else []
        )
        #: element name -> total element children across all instances
        child_totals: Dict[str, int] = {}
        #: (element name, attribute name) -> attribute value -> count
        attr_values: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: (parent name, child name) -> occurrence count
        edge_counts: Dict[Tuple[str, str], int] = {}
        stack = tops[::-1]
        while stack:
            node = stack.pop()
            name = node.name
            catalog.total_elements += 1
            catalog.element_counts[name] = catalog.element_counts.get(name, 0) + 1
            element_children = 0
            for child_name, children in node._child_element_index().items():
                element_children += len(children)
                key = (name, child_name)
                edge_counts[key] = edge_counts.get(key, 0) + len(children)
                stack.extend(children)
            child_totals[name] = child_totals.get(name, 0) + element_children
            for attribute in node.attributes:
                key = (name, attribute.name)
                catalog.attr_present[key] = catalog.attr_present.get(key, 0) + 1
                counts = attr_values.setdefault(key, {})
                counts[attribute.value] = counts.get(attribute.value, 0) + 1
        for name, count in catalog.element_counts.items():
            catalog.child_fanout[name] = child_totals.get(name, 0) / count
        for key, values in attr_values.items():
            catalog.attr_distinct[key] = len(values)
            if len(values) <= _DOMAIN_CAP:
                catalog.attr_domains[key] = frozenset(values)
        if [top.name for top in tops] == ["awb-model"]:
            schema = awb_export_schema()
            if schema.admits_observations(
                catalog.element_counts,
                set(edge_counts),
                catalog.attr_present,
                catalog.attr_domains,
            ):
                catalog.schema = schema
        return catalog

    # -- estimates explain asks for ---------------------------------

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
        """Distinct values of *attribute* on elements named *element*."""
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
