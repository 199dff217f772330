"""Dependency sets: what a cached query result can possibly depend on.

The write side of incremental view maintenance is the update language's
:class:`~repro.xquery.updates.footprint.Footprint`; this module is the
read side.  :func:`derive_dependencies` walks a calculus query once (at
plan-build time, so the cost is amortized with compilation) and names —
with metamodel subtype expansion, so the sets are closed the same way
evaluation is — everything the answer can depend on:

* **member types**: the concrete types whose *membership* the final
  result set tracks directly — the type segment after the last ``Follow``
  (for scan-shaped queries, the expanded start/filter types).  A freshly
  inserted node has no relations, so it can only enter a result through
  pure membership; a deleted node's relations die with it and are covered
  by the relation rule.
* **path types**: the union of concrete types possible at *every*
  pipeline position, or ``None`` when a position is unconstrained
  (``start(*)``, an id start, a ``Follow`` without a target type).
  Renames and property writes are checked against this: a retyped node
  can change membership anywhere along the pipeline, not just at the end.
* **relation names**: the expanded names of every followed relation.
* **node ids**: the start id of id-rooted queries.
* **properties**: every filtered property plus the sort property — the
  full set of property names whose *values* the answer (content or
  order) can reflect.

:meth:`DependencySet.affected_by` intersects a footprint with these sets
and returns the *reasons* the entry is affected (empty = provably
disjoint, the entry survives the write verbatim).  When the only reason
is ``membership`` and the plan is :attr:`~DependencySet.patchable` — a
simple scan: no follows, no property filters, no id start, no trace, and
a sort key whose live text equals its export text — :func:`patch_result`
splices the inserted/deleted rows into the cached id list at exactly the
position the backends' shared ``(sort key, id)`` order dictates.

A set lives in the result-cache entry it guards (see
:class:`~repro.querycalc.service.results.ResultCache`), so it is evicted
with the entry; plans that share an entry :meth:`~DependencySet.merge`
their sets into it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ...awb.metamodel import Metamodel
from ...awb.model import Model
from ..ast import FilterProperty, FilterType, Follow, Query
from ..native import _text


@dataclass(frozen=True)
class DependencySet:
    """Everything one plan's cached answer can depend on.

    ``None`` for a type set means "any type" (the conservative top).
    """

    member_types: Optional[FrozenSet[str]]
    path_types: Optional[FrozenSet[str]]
    node_ids: FrozenSet[str]
    relation_names: FrozenSet[str]
    properties: FrozenSet[str]
    patchable: bool
    sort_property: str
    descending: bool

    def affected_by(self, footprint) -> Set[str]:
        """The reasons *footprint* can touch this answer (empty = none).

        Each rule is an intersection; ``None`` type sets conservatively
        match everything.  Relation *property* writes are ignored — no
        calculus query reads relation properties.
        """
        reasons: Set[str] = set()
        if footprint.touched_node_ids & self.node_ids:
            reasons.add("ids")
        changed_members = footprint.member_types()
        if changed_members and (
            self.member_types is None or changed_members & self.member_types
        ):
            reasons.add("membership")
        if footprint.linked_types and (
            self.path_types is None or footprint.linked_types & self.path_types
        ):
            reasons.add("rename")
        if footprint.relation_names & self.relation_names:
            reasons.add("relations")
        for type_name, prop in footprint.node_prop_writes:
            if prop in self.properties and (
                self.path_types is None or type_name in self.path_types
            ):
                reasons.add("property")
                break
        return reasons

    def covers(self, other: "DependencySet") -> bool:
        """Whether merging *other* in would leave this set unchanged.

        Only subset tests, so a warm hit by the plan that stored an entry
        allocates nothing.
        """
        if other is self:
            return True
        same_order = (
            self.sort_property == other.sort_property
            and self.descending == other.descending
        )
        return (
            _within(other.member_types, self.member_types)
            and _within(other.path_types, self.path_types)
            and other.node_ids <= self.node_ids
            and other.relation_names <= self.relation_names
            and other.properties <= self.properties
            and (not self.patchable or (other.patchable and same_order))
        )

    def merge(self, other: "DependencySet") -> "DependencySet":
        """The union of two dependency sets (both plans share one cached
        entry, so the entry depends on everything either plan does);
        ``self`` when it already :meth:`covers` *other*."""
        if self.covers(other):
            return self

        def union(a, b):
            return None if a is None or b is None else a | b

        same_order = (
            self.sort_property == other.sort_property
            and self.descending == other.descending
        )
        return DependencySet(
            member_types=union(self.member_types, other.member_types),
            path_types=union(self.path_types, other.path_types),
            node_ids=self.node_ids | other.node_ids,
            relation_names=self.relation_names | other.relation_names,
            properties=self.properties | other.properties,
            patchable=self.patchable and other.patchable and same_order,
            sort_property=self.sort_property,
            descending=self.descending,
        )


def _within(
    inner: Optional[FrozenSet[str]], outer: Optional[FrozenSet[str]]
) -> bool:
    """``inner ⊆ outer`` for type sets where ``None`` means any type."""
    return outer is None or (inner is not None and inner <= outer)


def derive_dependencies(query: Query, metamodel: Metamodel) -> DependencySet:
    """Derive the :class:`DependencySet` of one calculus query."""

    def expand(type_name: str) -> FrozenSet[str]:
        return frozenset(metamodel.node_subtype_names(type_name))

    start = query.start
    node_ids: FrozenSet[str] = frozenset()
    if start.node_id is not None:
        node_ids = frozenset((start.node_id,))
        current: Optional[FrozenSet[str]] = None  # the node's type is dynamic
    elif start.all_nodes:
        current = None
    else:
        current = expand(start.type)

    position_types: List[Optional[FrozenSet[str]]] = [current]
    relation_names: Set[str] = set()
    properties: Set[str] = set()
    follows = 0
    property_filters = 0
    for step in query.steps:
        if isinstance(step, Follow):
            follows += 1
            if step.include_subrelations:
                relation_names.update(
                    metamodel.relation_subtype_names(step.relation)
                )
            else:
                relation_names.add(step.relation)
            current = (
                expand(step.target_type) if step.target_type is not None else None
            )
            position_types.append(current)
        elif isinstance(step, FilterType):
            narrowed = expand(step.type)
            current = narrowed if current is None else current & narrowed
            position_types[-1] = current
        elif isinstance(step, FilterProperty):
            properties.add(step.name)
            property_filters += 1

    if any(types is None for types in position_types):
        path_types: Optional[FrozenSet[str]] = None
    else:
        path_types = frozenset().union(*position_types)

    sort_property = query.collect.sort_by or metamodel.label_property
    properties.add(sort_property)

    # Pure membership changes (insert/delete of a node) can only reach a
    # follow-shaped query through relations: a fresh node has none, and a
    # deleted node's cascades land in the footprint's relation names.  So
    # only scan-shaped queries track membership directly; for them it is
    # the (narrowed) start segment.
    member_types = position_types[-1] if follows == 0 else frozenset()
    patchable = (
        follows == 0
        and property_filters == 0
        and start.node_id is None
        and query.trace is None
        and not _sort_property_is_html(metamodel, sort_property, member_types)
    )
    return DependencySet(
        member_types=member_types,
        path_types=path_types,
        node_ids=node_ids,
        relation_names=frozenset(relation_names),
        properties=frozenset(properties),
        patchable=patchable,
        sort_property=sort_property,
        descending=query.collect.descending,
    )


def _sort_property_is_html(
    metamodel: Metamodel,
    sort_property: str,
    member_types: Optional[FrozenSet[str]],
) -> bool:
    """``html``-declared sort properties export as markup whose string
    value differs from the live Python value, so patch-computed sort keys
    would disagree with the XQuery backend's — refuse to patch."""
    type_names = (
        member_types if member_types is not None else metamodel.node_types.keys()
    )
    for type_name in type_names:
        node_type = metamodel.node_type(type_name)
        if node_type is None:
            continue
        declaration = node_type.property_decl(sort_property)
        if declaration is not None and declaration.type == "html":
            return True
    return False


def patch_result(
    ids: List[str],
    footprint,
    deps: DependencySet,
    model: Model,
) -> Optional[List[str]]:
    """Splice a membership-only footprint into a cached scan result.

    Deleted rows drop out; inserted rows of a member type are placed at
    the position the shared ``(sort key text, id)`` order dictates, with
    keys read from the live (post-update) model.  Returns the new id
    list, or ``None`` when the patch cannot be proven faithful (the
    caller then invalidates — never serves a guess).
    """
    if not deps.patchable:
        return None
    survivors = (
        [i for i in ids if i not in footprint.deleted_nodes]
        if footprint.deleted_nodes
        else list(ids)
    )
    inserts = [
        node_id
        for node_id, type_name in footprint.inserted_nodes.items()
        if node_id in model.nodes
        and (deps.member_types is None or type_name in deps.member_types)
    ]
    if not inserts:
        return survivors

    def key_of(node_id: str) -> Optional[Tuple[str, str]]:
        node = model.nodes.get(node_id)
        if node is None:
            return None
        return (_text(node.get(deps.sort_property, "")), node_id)

    keys: List[Tuple[str, str]] = []
    for node_id in survivors:
        key = key_of(node_id)
        if key is None:
            return None  # a cached row is gone without a recorded delete
        keys.append(key)
    if deps.descending:
        keys.reverse()
        survivors = list(reversed(survivors))
    for node_id in inserts:
        key = key_of(node_id)
        if key is None:
            return None
        position = bisect_left(keys, key)
        keys.insert(position, key)
        survivors.insert(position, node_id)
    if deps.descending:
        survivors.reverse()
    return survivors
