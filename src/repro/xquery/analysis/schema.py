"""Document schemas for schema-aware static analysis.

The engine almost always queries one document shape: the AWB model
export.  Its vocabulary is fixed by ``awb/xml_io.py`` — ``<awb-model>``
over ``<node>``/``<relation>`` over ``<property>`` (with ``<html-value>``
wrapping rich-text payloads) — and the exporter *always* writes the
structural attributes (``@id``, ``@type``, ``@source``, ``@target``,
``@name``) while stamping ``@type`` on properties only for the non-string
value types.  Those conventions are a schema in the FLUX sense: a static
description of every tree the exporter can produce, precise enough to
prove a path dead (`XQL010`, and ``occ=empty`` in ``explain``) or a
predicate vacuous (`XQL012`).

Two ways to get one:

* :func:`awb_export_schema` — the static schema derived from the export
  conventions themselves; true of **every** exporter-produced document,
  past and future.
* ``StatisticsCatalog.from_root`` (``algebra/stats.py``) — the catalog
  walk ``explain`` runs additionally records parent→child edges and
  attribute value domains, and attaches the static schema to the catalog
  only after verifying the walked document actually conforms.  Statistics
  and schema both ride one walk.

Open-world edges are explicit: ``<html-value>`` holds arbitrary markup
(``children=None``), and ``@type`` on nodes/relations is an *advisory*
metamodel domain (users invent types freely), so neither is closed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...xdm import DocumentNode, ElementNode

__all__ = [
    "AttributeSchema",
    "ElementSchema",
    "DocumentSchema",
    "awb_export_schema",
]


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute an element may carry."""

    name: str
    #: the exporter writes this attribute on every such element.
    required: bool = False
    #: closed set of possible values; ``None`` means any string.
    domain: Optional[frozenset] = None


@dataclass(frozen=True)
class ElementSchema:
    """One element of the vocabulary: attributes and permitted children."""

    name: str
    attributes: Dict[str, AttributeSchema] = field(default_factory=dict)
    #: closed set of permitted child-element names; ``None`` = open content
    #: (anything may appear below — schema reasoning stops here).
    children: Optional[frozenset] = None
    #: whether text content may appear.
    text: bool = True

    @property
    def open_content(self) -> bool:
        return self.children is None


class DocumentSchema:
    """Element vocabulary + edges + attribute domains for one document shape.

    Everything the analyzer asks is phrased negatively — "can this step
    ever match?", "can this predicate ever be true?" — so an absent fact
    always degrades to "unknown, assume possible", never to a false claim.
    """

    def __init__(self, name: str, root: str, elements: Iterable[ElementSchema]):
        self.name = name
        self.root = root
        self.elements: Dict[str, ElementSchema] = {e.name: e for e in elements}

    def element(self, name: str) -> Optional[ElementSchema]:
        return self.elements.get(name)

    def child_allowed(self, parent: str, child: str) -> bool:
        """May *child* appear as a direct child of *parent*?

        True whenever the schema cannot prove otherwise.
        """
        decl = self.elements.get(parent)
        if decl is None or decl.open_content:
            return True
        return child in decl.children

    def attribute(self, element: str, attr: str) -> Optional[AttributeSchema]:
        decl = self.elements.get(element)
        if decl is None:
            return None
        return decl.attributes.get(attr)

    def attribute_allowed(self, element: str, attr: str) -> bool:
        decl = self.elements.get(element)
        if decl is None:
            return True
        return attr in decl.attributes

    def attribute_required(self, element: str, attr: str) -> bool:
        declared = self.attribute(element, attr)
        return declared is not None and declared.required

    def attribute_domain(self, element: str, attr: str) -> Optional[frozenset]:
        declared = self.attribute(element, attr)
        return declared.domain if declared is not None else None

    # -- conformance -------------------------------------------------------

    def violations(self, node, path: str = "") -> List[str]:
        """Why *node*'s subtree is not an instance of this schema.

        Empty list means the subtree conforms.  Subtrees below
        open-content elements are not inspected — the schema makes no
        claims there.
        """
        problems: List[str] = []
        if isinstance(node, DocumentNode):
            roots = [c for c in node.children if isinstance(c, ElementNode)]
            for child in roots:
                problems.extend(self.violations(child, path))
            return problems
        if not isinstance(node, ElementNode):
            return problems
        here = f"{path}/{node.name}"
        decl = self.elements.get(node.name)
        if decl is None:
            problems.append(f"{here}: element <{node.name}> is not in the vocabulary")
            return problems
        seen: Set[str] = set()
        for attribute in node.attributes:
            seen.add(attribute.name)
            declared = decl.attributes.get(attribute.name)
            if declared is None:
                problems.append(f"{here}: unexpected attribute @{attribute.name}")
            elif declared.domain is not None and attribute.value not in declared.domain:
                problems.append(
                    f"{here}: @{attribute.name}={attribute.value!r} outside domain "
                    f"{sorted(declared.domain)}"
                )
        for declared in decl.attributes.values():
            if declared.required and declared.name not in seen:
                problems.append(f"{here}: missing required attribute @{declared.name}")
        if decl.open_content:
            return problems  # anything goes below; stop checking
        for child in node.children:
            if isinstance(child, ElementNode):
                if child.name not in decl.children:
                    problems.append(
                        f"{here}: <{child.name}> may not appear inside <{node.name}>"
                    )
                else:
                    problems.extend(self.violations(child, here))
        return problems

    def admits(self, node) -> bool:
        """True if *node*'s subtree is an instance of this schema."""
        return not self.violations(node)

    def admits_observations(
        self,
        element_counts: Dict[str, int],
        edges: Set[Tuple[str, str]],
        attr_present: Dict[Tuple[str, str], int],
        attr_domains: Dict[Tuple[str, str], Optional[frozenset]],
    ) -> bool:
        """True if whole-document walk observations conform to this schema.

        This is the cheap conformance check the statistics walk uses: it
        sees aggregated facts (per-name counts, parent→child edge pairs,
        attribute presence counts and value sets) rather than the tree.
        It is deliberately conservative — arbitrary markup below an
        open-content element can reuse a vocabulary name (an ``<html-value>``
        payload containing a ``<node>``) and the aggregates cannot tell
        those apart, so any such collision simply fails conformance and
        the caller falls back to schema-free behavior.
        """
        for parent, child in edges:
            decl = self.elements.get(parent)
            if decl is None or decl.open_content:
                continue
            if child not in decl.children:
                return False
        for (element, attr), _count in attr_present.items():
            decl = self.elements.get(element)
            if decl is None:
                continue
            declared = decl.attributes.get(attr)
            if declared is None:
                return False
            if declared.domain is not None:
                observed = attr_domains.get((element, attr))
                if observed is None or not observed <= declared.domain:
                    return False
        for element, count in element_counts.items():
            decl = self.elements.get(element)
            if decl is None:
                continue
            for declared in decl.attributes.values():
                if declared.required:
                    if attr_present.get((element, declared.name), 0) != count:
                        return False
        return True

    # -- reachability ------------------------------------------------------

    def descendants_closed(self, name: str) -> Optional[frozenset]:
        """The closed set of element names reachable below *name*, or
        ``None`` when an open-content element is reachable (then *any*
        name may occur in the subtree)."""
        reached: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            decl = self.elements.get(current)
            if decl is None:
                continue
            if decl.open_content:
                return None
            for child in decl.children:
                if child not in reached:
                    reached.add(child)
                    frontier.append(child)
        return frozenset(reached)


#: value types the exporter stamps into ``property/@type`` — ``string`` is
#: the default and deliberately *omitted* (the paper-era footgun XQL012
#: exists to catch: ``[@type eq "string"]`` matches nothing, ever).
PROPERTY_TYPE_DOMAIN = frozenset({"integer", "boolean", "float", "html"})


def awb_export_schema() -> DocumentSchema:
    """The schema of every document ``awb.xml_io.export_model`` can emit.

    Derived from the export conventions, not from any particular model:
    structural attributes are always written, ``property/@type`` draws
    from the closed non-string value-type domain, node/relation ``@type``
    stays open (metamodel conformance is advisory — users invent types),
    and ``<html-value>`` is open content.
    """
    return DocumentSchema(
        name="awb-export",
        root="awb-model",
        elements=[
            ElementSchema(
                "awb-model",
                attributes={
                    "name": AttributeSchema("name", required=True),
                    "metamodel": AttributeSchema("metamodel", required=True),
                },
                children=frozenset({"node", "relation"}),
                text=False,
            ),
            ElementSchema(
                "node",
                attributes={
                    "id": AttributeSchema("id", required=True),
                    "type": AttributeSchema("type", required=True),
                },
                children=frozenset({"property"}),
                text=False,
            ),
            ElementSchema(
                "relation",
                attributes={
                    "id": AttributeSchema("id", required=True),
                    "type": AttributeSchema("type", required=True),
                    "source": AttributeSchema("source", required=True),
                    "target": AttributeSchema("target", required=True),
                },
                children=frozenset({"property"}),
                text=False,
            ),
            ElementSchema(
                "property",
                attributes={
                    "name": AttributeSchema("name", required=True),
                    "type": AttributeSchema(
                        "type", required=False, domain=PROPERTY_TYPE_DOMAIN
                    ),
                },
                children=frozenset({"html-value"}),
                text=True,
            ),
            ElementSchema("html-value", attributes={}, children=None, text=True),
        ],
    )
