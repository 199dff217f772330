"""Random AWB models and random calculus queries over them.

The models are structurally honest to the paper's engagements — people,
programs, servers, documents tied together by ``has``/``uses``/``runs``/
``likes`` — but the generator deliberately exercises the permissive
corners the metamodel chapter calls out: ad-hoc properties on individual
nodes, unknown node and relation types (allowed, with a meek warning),
duplicate labels (so sort tie-breaking is observable), and properties of
every scalar type the export format distinguishes.
"""

from __future__ import annotations

import random
from typing import List

from ..awb import Model, load_metamodel
from ..querycalc.ast import Collect, FilterProperty, FilterType, Follow, Query, Start

#: node types drawn for random nodes (plus a rare unknown type).
NODE_TYPES = [
    "User",
    "Superuser",
    "Person",
    "Program",
    "Server",
    "Subsystem",
    "Document",
    "Computer",
]

RELATIONS = ["has", "uses", "runs", "likes", "favors"]

_LABELS = ["ant", "bee", "cat", "doe", "elk", "fox", "gnu", "hen"]


def random_model(seed: int, size: int = 24, html_properties: bool = False) -> Model:
    """A seeded random model with ``size`` nodes plus a SystemBeingDesigned.

    ``html_properties`` opts into html-typed property values (the export
    schema-drift quirk): the native calculus backend sees the raw markup
    string while the XQuery backend sees only the text content, so filters
    over them legitimately diverge — see the oracle allowlist.
    """
    rng = random.Random(seed)
    model = Model(load_metamodel("it-architecture"), name=f"fuzz-model-{seed}")
    sbd = model.create_node("SystemBeingDesigned", label="SUD")
    nodes = [sbd]
    for index in range(size):
        if rng.random() < 0.06:
            type_name = "Widget"  # unknown type: allowed, warns
        else:
            type_name = rng.choice(NODE_TYPES)
        # duplicate labels are deliberate: sorting must tie-break by id.
        label = rng.choice(_LABELS)
        node = model.create_node(type_name, label=label)
        if rng.random() < 0.5:
            node.set("rank", rng.randrange(0, 40))
        if rng.random() < 0.3:
            node.set("weight", rng.randrange(1, 80) / 4.0)
        if rng.random() < 0.3:
            node.set("active", rng.random() < 0.5)
        if rng.random() < 0.4:
            node.set("tag", rng.choice(_LABELS) + str(rng.randrange(0, 5)))
        if type_name == "Document" and rng.random() < 0.7:
            node.set("version", f"{rng.randrange(0, 3)}.{rng.randrange(0, 10)}")
        if type_name in ("User", "Superuser", "Person") and rng.random() < 0.6:
            node.set("birthYear", 1950 + rng.randrange(0, 50))
        if html_properties and rng.random() < 0.3:
            node.set("description", f"<p>{rng.choice(_LABELS)}</p>")
        nodes.append(node)
    relation_count = int(size * 1.5)
    for _ in range(relation_count):
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        name = "blesses" if rng.random() < 0.05 else rng.choice(RELATIONS)
        model.connect(source, name, target)
    return model


def random_calculus_query(rng: random.Random, model: Model) -> Query:
    """A seeded random calculus query that is valid against ``model``."""
    roll = rng.random()
    if roll < 0.15:
        start = Start(all_nodes=True)
    elif roll < 0.3:
        start = Start(node_id=rng.choice(list(model.nodes)))
    else:
        start = Start(type=rng.choice(NODE_TYPES + ["Element", "System"]))
    steps: List[object] = []
    for _ in range(rng.randrange(0, 3)):
        kind = rng.random()
        if kind < 0.55:
            steps.append(
                Follow(
                    relation=rng.choice(RELATIONS + ["blesses"]),
                    direction=rng.choice(("forward", "backward")),
                    target_type=(
                        rng.choice(NODE_TYPES) if rng.random() < 0.3 else None
                    ),
                    include_subrelations=rng.random() < 0.8,
                )
            )
        elif kind < 0.75:
            steps.append(FilterType(type=rng.choice(NODE_TYPES + ["Element"])))
        else:
            steps.append(_random_property_filter(rng, model))
    collect = Collect(
        sort_by=rng.choice((None, "label", "rank", "tag")),
        descending=rng.random() < 0.3,
        distinct=rng.random() < 0.8,
    )
    trace = f"q{rng.randrange(0, 1000)}" if rng.random() < 0.25 else None
    return Query(start=start, steps=steps, collect=collect, trace=trace)


def _random_property_filter(rng: random.Random, model: Model) -> FilterProperty:
    name = rng.choice(("rank", "weight", "active", "tag", "label", "version", "birthYear"))
    op = rng.choice(("eq", "ne", "lt", "le", "gt", "ge", "contains"))
    value = _sample_value(rng, model, name)
    return FilterProperty(name=name, op=op, value=value)


def _sample_value(rng: random.Random, model: Model, name: str) -> str:
    """Mostly values that actually occur, so filters sometimes match."""
    present: List[str] = []
    for node in model.nodes.values():
        value = node.get(name)
        if value is None:
            continue
        present.append("true" if value is True else "false" if value is False else str(value))
    if present and rng.random() < 0.7:
        return rng.choice(present)
    if name in ("rank", "birthYear"):
        return str(rng.randrange(0, 2000))
    if name == "weight":
        return str(rng.randrange(0, 80) / 4.0)
    if name == "active":
        return rng.choice(("true", "false", "1"))
    return rng.choice(_LABELS)


def random_update_script(rng: random.Random, model: Model) -> str:
    """A random update-language script that passes the static checker.

    Targets are drawn from the live model (and from ids already deleted
    earlier in the same script are excluded, so UPD008 never fires);
    property literals match the metamodel's declared types (label/tag as
    strings, rank/birthYear as integers), so UPD003 never fires either.
    Unknown-type warnings and no-op infos are allowed — they are
    advisory, exactly like the model API's own warnings.
    """
    statements: List[str] = []
    dead: set = set()

    def live_nodes() -> List[str]:
        return [node_id for node_id in model.nodes if node_id not in dead]

    def live_relations() -> List[str]:
        return [rel_id for rel_id in model.relations if rel_id not in dead]

    for _ in range(rng.randrange(1, 4)):
        nodes = live_nodes()
        roll = rng.random()
        if roll < 0.25:
            type_name = rng.choice(NODE_TYPES)
            if rng.random() < 0.7:
                props = (
                    f' with (label "{rng.choice(_LABELS)}",'
                    f" rank {rng.randrange(0, 40)})"
                )
            else:
                props = ""
            statements.append(f"insert node {type_name}{props}")
        elif roll < 0.40 and len(nodes) >= 2:
            source, target = rng.choice(nodes), rng.choice(nodes)
            statements.append(
                f"insert relation {rng.choice(RELATIONS)} from {source} to {target}"
            )
        elif roll < 0.52 and nodes:
            victim = rng.choice(nodes)
            dead.add(victim)
            node = model.nodes[victim]
            for relation in model.outgoing(node) + model.incoming(node):
                dead.add(relation.id)  # cascades die with the node
            statements.append(f"delete node {victim}")
        elif roll < 0.62 and live_relations():
            victim = rng.choice(live_relations())
            dead.add(victim)
            statements.append(f"delete relation {victim}")
        elif roll < 0.80 and nodes:
            target = rng.choice(nodes)
            name, literal = rng.choice(
                [
                    ("label", f'"{rng.choice(_LABELS)}"'),
                    ("rank", str(rng.randrange(0, 40))),
                    ("tag", f'"{rng.choice(_LABELS)}{rng.randrange(0, 5)}"'),
                    ("birthYear", str(1950 + rng.randrange(0, 50))),
                ]
            )
            statements.append(f"replace value of {target}.{name} with {literal}")
        elif roll < 0.90 and nodes:
            statements.append(
                f"delete property {rng.choice(('tag', 'rank'))} of {rng.choice(nodes)}"
            )
        elif nodes:
            statements.append(
                f"rename node {rng.choice(nodes)} as {rng.choice(NODE_TYPES)}"
            )
    if not statements:
        statements.append(f"insert node {rng.choice(NODE_TYPES)}")
    return "\n".join(statement + ";" for statement in statements)


#: full-text vocabulary for generated documents.  Deliberately includes
#: multi-byte words (combining-free but non-ASCII) so tokenization, KWIC
#: offsets, and the index round-trip are exercised outside ASCII.
FT_WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "kappa", "zeta",
    "čaj", "füße", "京都", "naïve", "señor",
]

#: collection prefixes the generated store writes under.
FT_COLLECTIONS = ["docs/", "notes/", "models/"]


def random_document_store(seed: int, docs: int = 12):
    """A seeded :class:`repro.collections.DocumentStore` for fuzzing.

    Mostly plain-text documents over :data:`FT_WORDS` spread across
    ``docs/`` and ``notes/``; a few entries under ``models/`` are live AWB
    models wired through :meth:`DocumentStore.put_model`, so incremental
    update scripts (:func:`random_update_script`) have real targets and
    the index-maintenance path through the exporter gets exercised.
    """
    from ..collections import DocumentStore

    rng = random.Random(seed)
    store = DocumentStore()
    for index in range(docs):
        if index % 5 == 4:
            model = random_model(seed * 1000 + index, size=8)
            store.put_model(f"models/m{index}.xml", model)
            continue
        prefix = "docs/" if index % 2 == 0 else "notes/"
        paragraphs = []
        for _ in range(rng.randrange(1, 4)):
            words = " ".join(rng.choice(FT_WORDS) for _ in range(rng.randrange(3, 12)))
            paragraphs.append(f"<p>{words}</p>")
        store.put_text(f"{prefix}d{index}.xml", f"<doc>{''.join(paragraphs)}</doc>")
    return store


def random_phrase(rng: random.Random, max_tokens: int = 3) -> str:
    """A 1..``max_tokens``-word phrase over the full-text vocabulary."""
    count = rng.randrange(1, max_tokens + 1)
    return " ".join(rng.choice(FT_WORDS) for _ in range(count))
