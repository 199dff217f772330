"""AWB's "nice, clean XML format" — model export and import.

The document generator (both implementations) consumes this export rather
than live models: "we decided to do an external document generator — a
program which simply used AWB's exported data".

Format::

    <awb-model name="..." metamodel="...">
      <node id="N1" type="Person">
        <property name="label">Alice</property>
        <property name="birthYear" type="integer">1970</property>
        <property name="biography" type="html"><p>...</p></property>
      </node>
      <relation id="R1" type="has" source="N1" target="N2">
        <property name="since" type="integer">1999</property>
      </relation>
    </awb-model>

Scalar properties serialize as text; ``html``-typed property values are
embedded as child elements (the paper's "embarrassing historical reasons"
schema drift — AWB stored them as strings internally but exported XML).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..xdm import AttributeNode, DocumentNode, ElementNode, Node, TextNode
from ..xmlio import parse_document, parse_element, serialize
from .metamodel import Metamodel
from .model import Model, ModelNode, RelationObject


def export_model(model: Model) -> DocumentNode:
    """Export a model to its XML document form."""
    root = _element("awb-model", (("name", model.name), ("metamodel", model.metamodel.name)))
    for node in model.nodes.values():
        _add_child(root, _export_node(node))
    for relation in model.relations.values():
        _add_child(root, _export_relation(relation))
    return DocumentNode([root])


def export_model_text(model: Model, indent: bool = True) -> str:
    """Export a model to XML text."""
    return serialize(export_model(model), indent=indent, xml_declaration=True)


# Export elements are built in one pass: each gets its attribute list
# filled directly and its children appended to the raw list, as the XML
# parser does, so no per-attribute replace scan or index invalidation runs.


def _element(name: str, attributes: Tuple[Tuple[str, str], ...]) -> ElementNode:
    element = ElementNode(name)
    attribute_list = element.attributes
    for attribute_name, value in attributes:
        attribute = AttributeNode(attribute_name, value)
        attribute.parent = element
        attribute_list.append(attribute)
    return element


def _add_child(parent: ElementNode, child: Node) -> None:
    child.parent = parent
    parent.children.append(child)


def _export_node(node: ModelNode) -> ElementNode:
    out = _element("node", (("id", node.id), ("type", node.type_name)))
    node_type = node.model.metamodel.node_type(node.type_name)
    declared = node_type.all_properties() if node_type is not None else {}
    _export_properties(out, node.properties, declared)
    return out


def _export_relation(relation: RelationObject) -> ElementNode:
    out = _element(
        "relation",
        (
            ("id", relation.id),
            ("type", relation.relation_name),
            ("source", relation.source.id),
            ("target", relation.target.id),
        ),
    )
    _export_properties(out, relation.properties, {})
    return out


def _export_properties(
    parent: ElementNode, properties: Dict[str, object], declared: Dict[str, object]
) -> None:
    """One ``<property>`` per value; *declared* maps a property name to its
    node type's declaration, which fixes the exported type."""
    for name, value in properties.items():
        declaration = declared.get(name)
        type_name = declaration.type if declaration is not None else _value_type(value)
        if type_name == "string":
            prop = _element("property", (("name", name),))
        else:
            prop = _element("property", (("name", name), ("type", type_name)))
        if type_name == "html":
            # HTML-valued properties export as child elements, not text —
            # the schema drift the paper describes.
            try:
                content = parse_element(f"<html-value>{value}</html-value>")
            except Exception:
                content = TextNode(str(value))
        elif isinstance(value, bool):
            content = TextNode("true" if value else "false")
        else:
            content = TextNode(str(value))
        _add_child(prop, content)
        _add_child(parent, prop)


def _value_type(value: object) -> str:
    """The exported type of an undeclared property value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    return "string"


#: subtree-delta log entries retained past this many pairs start a new
#: epoch instead (consumers fall back to one full walk) — the log exists
#: to make *small* deltas cheap, not to replay unbounded history.
_DELTA_LOG_CAP = 1024


class IncrementalExporter:
    """Maintains a live XML export of a model under mutation.

    The first :meth:`export` call builds the full document (exactly
    :func:`export_model`); afterwards the exporter listens to the model's
    mutation events and, on the next :meth:`export`, re-exports only the
    *dirty* ``<node>``/``<relation>`` subtrees — replacing, inserting, or
    removing the affected elements in place.  A point mutation therefore
    costs one subtree, not a whole-model rebuild.

    The maintained document is kept byte-identical to a fresh
    :func:`export_model` (the property-based suite asserts this under
    random mutation sequences).  The invariant that makes it work: the
    root's children are exactly the node elements in ``model.nodes`` dict
    order followed by the relation elements in ``model.relations`` order,
    and Python dicts mutate order the same way the exporter does (deletes
    keep order, inserts append).
    """

    def __init__(self, model: Model):
        self.model = model
        self._document: Optional[DocumentNode] = None
        self._node_elements: Dict[str, ElementNode] = {}
        self._relation_elements: Dict[str, ElementNode] = {}
        # dicts used as ordered sets: iteration order = event order, which
        # for brand-new entities equals their model-dict insertion order.
        self._dirty_nodes: Dict[str, None] = {}
        self._dirty_relations: Dict[str, None] = {}
        self._removed_nodes: Dict[str, None] = {}
        self._removed_relations: Dict[str, None] = {}
        self._needs_full = True
        #: ``model.generation`` as of the current document's state.
        self.generation = -1
        self.full_exports = 0
        self.subtree_exports = 0
        # the subtree-delta log: ``(old_element, new_element)`` pairs (None
        # for pure inserts/removals) in application order, all direct
        # children of the root.  Export-time consumers — the statistics
        # catalog — subtract the old subtree and add the new one instead of
        # re-walking the document.  A full rebuild starts a new epoch;
        # cursors from an older epoch answer None.
        self._delta_log: List[Tuple[Optional[ElementNode], Optional[ElementNode]]] = []
        self._delta_epoch = 0
        model.add_listener(self._observe)

    # -- event intake -----------------------------------------------------------

    def _observe(self, kind: str, entity_id: str) -> None:
        # NB: an add after a remove does *not* cancel the pending removal:
        # re-adding an id moves it to the end of its dict, so the old
        # element must be physically removed and a fresh one appended.
        if kind in ("node-added", "node-changed"):
            self._dirty_nodes[entity_id] = None
        elif kind == "node-removed":
            self._removed_nodes[entity_id] = None
            self._dirty_nodes.pop(entity_id, None)
        elif kind in ("relation-added", "relation-changed"):
            self._dirty_relations[entity_id] = None
        elif kind == "relation-removed":
            self._removed_relations[entity_id] = None
            self._dirty_relations.pop(entity_id, None)

    def _has_pending(self) -> bool:
        return bool(
            self._dirty_nodes
            or self._dirty_relations
            or self._removed_nodes
            or self._removed_relations
        )

    # -- export -----------------------------------------------------------------

    def export(self) -> DocumentNode:
        """The up-to-date export document (applying any pending changes)."""
        if self._document is None or self._needs_full:
            self._rebuild()
        elif self._has_pending():
            self._apply_pending()
        self.generation = self.model.generation
        return self._document

    def invalidate(self) -> None:
        """Force a full rebuild on the next :meth:`export` call."""
        self._needs_full = True

    def detach(self) -> None:
        """Stop listening to the model (the exporter is then inert)."""
        self.model.remove_listener(self._observe)

    def stats(self) -> Dict[str, int]:
        return {
            "full_exports": self.full_exports,
            "subtree_exports": self.subtree_exports,
            "generation": self.generation,
        }

    # -- subtree-delta log -------------------------------------------------------

    def delta_cursor(self) -> Tuple[int, int]:
        """An opaque position in the subtree-delta log.

        Take one after reading the export, and pass it to
        :meth:`delta_since` later to get exactly the subtree replacements
        applied in between.
        """
        return (self._delta_epoch, len(self._delta_log))

    def delta_since(
        self, cursor: Optional[Tuple[int, int]]
    ) -> Optional[List[Tuple[Optional[ElementNode], Optional[ElementNode]]]]:
        """The ``(old, new)`` subtree pairs applied since *cursor*.

        Returns ``None`` when the log does not cover the span — a full
        rebuild happened, the log was truncated at its cap, or the cursor
        is from an older epoch — and the caller must re-derive whatever it
        maintains from the document itself.
        """
        if cursor is None:
            return None
        epoch, start = cursor
        if epoch != self._delta_epoch or start > len(self._delta_log):
            return None
        return self._delta_log[start:]

    def _delta_break(self) -> None:
        """Invalidate every outstanding delta cursor (rebuild/cap/rename)."""
        self._delta_epoch += 1
        self._delta_log.clear()

    def _clear_pending(self) -> None:
        self._dirty_nodes.clear()
        self._dirty_relations.clear()
        self._removed_nodes.clear()
        self._removed_relations.clear()

    def _rebuild(self) -> None:
        self._document = export_model(self.model)
        root = self._document.document_element()
        self._node_elements = dict(
            zip(self.model.nodes.keys(), root.child_elements("node"))
        )
        self._relation_elements = dict(
            zip(self.model.relations.keys(), root.child_elements("relation"))
        )
        self._needs_full = False
        self.full_exports += 1
        self._delta_break()
        self._clear_pending()

    def _apply_pending(self) -> None:
        root = self._document.document_element()
        if root.get_attribute("name") != self.model.name:
            # a root-attribute change is not a subtree pair: break the log
            # so delta consumers re-derive from the document once.
            root.set_attribute("name", self.model.name)
            self._delta_break()
        for node_id in self._removed_nodes:
            element = self._node_elements.pop(node_id, None)
            if element is not None:
                root.remove(element)
                self._delta_log.append((element, None))
        for relation_id in self._removed_relations:
            element = self._relation_elements.pop(relation_id, None)
            if element is not None:
                root.remove(element)
                self._delta_log.append((element, None))
        for node_id in self._dirty_nodes:
            node = self.model.nodes.get(node_id)
            if node is None:
                continue  # created and removed between exports
            fresh = _export_node(node)
            old = self._node_elements.get(node_id)
            if old is not None:
                root.replace_child(old, [fresh])
            else:
                # new nodes go at the end of the node block (before the
                # first relation element), mirroring dict-append order.
                root.insert(len(self._node_elements), fresh)
            self._delta_log.append((old, fresh))
            self._node_elements[node_id] = fresh
            self.subtree_exports += 1
        for relation_id in self._dirty_relations:
            relation = self.model.relations.get(relation_id)
            if relation is None:
                continue
            fresh = _export_relation(relation)
            old = self._relation_elements.get(relation_id)
            if old is not None:
                root.replace_child(old, [fresh])
            else:
                root.append(fresh)
            self._delta_log.append((old, fresh))
            self._relation_elements[relation_id] = fresh
            self.subtree_exports += 1
        if len(self._delta_log) > _DELTA_LOG_CAP:
            self._delta_break()
        self._clear_pending()


def export_metamodel(metamodel: Metamodel) -> ElementNode:
    """Export a metamodel's type hierarchies as XML.

    The XQuery document generator needs this to answer subtype questions
    (``Superuser`` is a ``User``) over the exported model, where nodes only
    carry their concrete type name::

        <metamodel name="it-architecture" label-property="label">
          <node-type name="User" parent="Person"/>
          <relation-type name="favors" parent="likes"/>
        </metamodel>
    """
    root = ElementNode("metamodel")
    root.set_attribute("name", metamodel.name)
    root.set_attribute("label-property", metamodel.label_property)
    for node_type in metamodel.node_types.values():
        entry = ElementNode("node-type")
        entry.set_attribute("name", node_type.name)
        if node_type.parent is not None:
            entry.set_attribute("parent", node_type.parent.name)
        root.append(entry)
    for relation_type in metamodel.relation_types.values():
        entry = ElementNode("relation-type")
        entry.set_attribute("name", relation_type.name)
        if relation_type.parent is not None:
            entry.set_attribute("parent", relation_type.parent.name)
        root.append(entry)
    for advisory in metamodel.advisories:
        entry = ElementNode("advisory")
        entry.set_attribute("kind", advisory.kind)
        entry.set_attribute("type", advisory.type)
        if advisory.property is not None:
            entry.set_attribute("property", advisory.property)
        if advisory.message:
            entry.set_attribute("message", advisory.message)
        root.append(entry)
    return root


class ModelImportError(ValueError):
    """The XML is not a well-formed AWB model export."""


def import_model(
    document: Node, metamodel: Metamodel, apply_defaults: bool = True
) -> Model:
    """Rebuild a model from its XML export.

    ``apply_defaults=False`` makes the import *faithful* rather than
    constructive: nodes carry exactly the properties the export recorded,
    and declared defaults deleted from the source model stay deleted.  The
    serving tier's worker replicas import this way so their query results
    match the front-end's live model byte for byte.
    """
    root = (
        document.document_element()
        if isinstance(document, DocumentNode)
        else document
    )
    if root is None or root.name != "awb-model":
        raise ModelImportError("expected an <awb-model> document")
    model = Model(metamodel, name=root.get_attribute("name") or "model")
    for node_element in root.child_elements("node"):
        node_id = node_element.get_attribute("id")
        type_name = node_element.get_attribute("type")
        if node_id is None or type_name is None:
            raise ModelImportError("<node> requires id and type attributes")
        node = model.create_node(
            type_name, node_id=node_id, apply_defaults=apply_defaults
        )
        for name, value in _read_properties(node_element):
            node.set(name, value)
    for relation_element in root.child_elements("relation"):
        source_id = relation_element.get_attribute("source")
        target_id = relation_element.get_attribute("target")
        type_name = relation_element.get_attribute("type")
        relation_id = relation_element.get_attribute("id")
        if None in (source_id, target_id, type_name, relation_id):
            raise ModelImportError(
                "<relation> requires id, type, source and target attributes"
            )
        try:
            source = model.node(source_id)
            target = model.node(target_id)
        except KeyError as exc:
            raise ModelImportError(f"relation endpoint {exc} is not in the model") from exc
        relation = model.connect(source, type_name, target, relation_id=relation_id)
        for name, value in _read_properties(relation_element):
            relation.properties[name] = value
    return model


def import_model_text(
    text: str, metamodel: Metamodel, apply_defaults: bool = True
) -> Model:
    return import_model(parse_document(text), metamodel, apply_defaults=apply_defaults)


def _read_properties(parent: ElementNode):
    for prop in parent.child_elements("property"):
        name = prop.get_attribute("name")
        if name is None:
            raise ModelImportError("<property> requires a name attribute")
        type_name = prop.get_attribute("type") or "string"
        if type_name == "html":
            wrapper = prop.first_child_element("html-value")
            if wrapper is not None:
                value = "".join(serialize(child) for child in wrapper.children)
            else:
                value = prop.string_value()
        elif type_name == "integer":
            value = int(prop.string_value().strip() or 0)
        elif type_name == "float":
            value = float(prop.string_value().strip() or 0.0)
        elif type_name == "boolean":
            value = prop.string_value().strip() == "true"
        else:
            value = prop.string_value()
        yield name, value
