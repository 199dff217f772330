"""Dirty-tracking and incremental export correctness.

The load-bearing invariant: after ANY sequence of model mutations, the
incrementally maintained export document serializes byte-identically to a
fresh full :func:`export_model`.  The hypothesis suite drives random
mutation programs at it; the unit tests pin the individual event kinds
and the edge cases (remove-then-readd reorders, property deletes, html
properties, dangling writes).
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awb import IncrementalExporter, Model, export_model, load_metamodel
from repro.workloads import make_it_model
from repro.xmlio import serialize


def full_text(model):
    return serialize(export_model(model), indent=True)


def incremental_text(exporter):
    return serialize(exporter.export(), indent=True)


@pytest.fixture()
def model():
    return make_it_model(scale=4)


@pytest.fixture()
def exporter(model):
    exporter = IncrementalExporter(model)
    exporter.export()  # establish the baseline document
    return exporter


class TestMutationEvents:
    def test_model_generation_bumps_on_every_mutation(self, model):
        generation = model.generation
        node = model.create_node("User", label="new")
        assert model.generation > generation
        generation = model.generation
        node.set("firstName", "Zed")
        assert model.generation > generation
        generation = model.generation
        node.properties["adHoc"] = "direct dict write"
        assert model.generation > generation
        generation = model.generation
        model.remove_node(node)
        assert model.generation > generation

    def test_listener_sees_property_bag_writes(self, model):
        events = []
        model.add_listener(lambda kind, entity_id: events.append((kind, entity_id)))
        node = model.create_node("User", node_id="NX")
        assert ("node-added", "NX") in events
        events.clear()
        node.properties["x"] = 1
        del node.properties["x"]
        node.properties.update(y=2)
        node.properties.pop("y")
        node.label = "via label setter"
        assert events and all(kind == "node-changed" for kind, _ in events)
        assert len(events) == 5

    def test_relation_set_and_listener(self, model):
        events = []
        model.add_listener(lambda kind, entity_id: events.append((kind, entity_id)))
        users = model.nodes_of_type("User")
        relation = model.connect(users[0], "likes", users[1])
        assert ("relation-added", relation.id) in events
        relation.set("since", 2004)
        assert ("relation-changed", relation.id) in events
        assert relation.get("since") == 2004

    def test_remove_listener(self, model):
        events = []
        listener = lambda kind, entity_id: events.append(kind)
        model.add_listener(listener)
        model.remove_listener(listener)
        model.create_node("User")
        assert events == []


class TestIncrementalExport:
    def test_clean_export_is_reused(self, exporter):
        assert exporter.export() is exporter.export()

    def test_invalidate_forces_new_document(self, exporter):
        first = exporter.export()
        exporter.invalidate()
        assert exporter.export() is not first
        assert exporter.stats()["full_exports"] == 2

    def test_property_change_patches_one_subtree(self, model, exporter):
        model.nodes_of_type("User")[0].set("firstName", "Renamed")
        assert incremental_text(exporter) == full_text(model)
        stats = exporter.stats()
        assert stats["full_exports"] == 1
        assert stats["subtree_exports"] == 1

    def test_node_add_and_remove(self, model, exporter):
        added = model.create_node("User", label="fresh", birthYear=1980)
        assert incremental_text(exporter) == full_text(model)
        model.remove_node(added)
        assert incremental_text(exporter) == full_text(model)

    def test_relation_add_change_remove(self, model, exporter):
        users = model.nodes_of_type("User")
        relation = model.connect(users[0], "likes", users[-1], since=1999)
        assert incremental_text(exporter) == full_text(model)
        relation.set("since", 2004)
        assert incremental_text(exporter) == full_text(model)
        model.remove_relation(relation)
        assert incremental_text(exporter) == full_text(model)

    def test_remove_node_cascades_relations(self, model, exporter):
        # removing a node drops every relation touching it, in one batch.
        victim = model.nodes_of_type("User")[0]
        assert model.outgoing(victim) or model.incoming(victim)
        model.remove_node(victim)
        assert incremental_text(exporter) == full_text(model)

    def test_readded_id_moves_to_end_of_node_block(self, model, exporter):
        victim = model.nodes_of_type("Program")[0]
        node_id = victim.id
        model.remove_node(victim)
        model.create_node("Program", label="reborn", node_id=node_id)
        assert incremental_text(exporter) == full_text(model)

    def test_property_delete_and_reset_moves_to_end(self, model, exporter):
        node = model.nodes_of_type("User")[0]
        node.set("extra", "x")
        exporter.export()
        del node.properties["label"]
        node.set("label", "back-at-the-end")
        assert incremental_text(exporter) == full_text(model)

    def test_html_property_subtree(self, model, exporter):
        node = model.nodes_of_type("Document")[0]
        node.set("biography", "<p>rich <b>text</b></p>")
        assert incremental_text(exporter) == full_text(model)

    def test_model_rename_is_picked_up(self, model, exporter):
        model.name = "renamed-model"
        model.create_node("User", label="trigger")  # any mutation applies it
        assert incremental_text(exporter) == full_text(model)

    def test_dangling_write_after_removal_is_harmless(self, model, exporter):
        victim = model.nodes_of_type("User")[0]
        model.remove_node(victim)
        victim.properties["ghost"] = "write to a removed node"
        assert incremental_text(exporter) == full_text(model)

    def test_detach_stops_tracking(self, model, exporter):
        exporter.detach()
        before = incremental_text(exporter)
        model.create_node("User", label="unseen")
        assert incremental_text(exporter) == before


# -- the property: random mutation programs keep exports byte-identical --------


NODE_TYPES = ["User", "Superuser", "Program", "Server", "Document"]
PROPERTY_NAMES = ["label", "firstName", "version", "note"]

mutation_ops = st.sampled_from(
    ["add-node", "remove-node", "set-property", "delete-property",
     "add-relation", "remove-relation", "set-relation-property"]
)

word = st.text(alphabet=string.ascii_letters + string.digits, min_size=0, max_size=8)


class TestIncrementalExportProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_mutations_keep_export_identical(self, data):
        model = Model(load_metamodel("it-architecture"))
        exporter = IncrementalExporter(model)
        # seed a few nodes so early ops have something to chew on
        for index in range(data.draw(st.integers(min_value=0, max_value=4))):
            model.create_node(
                data.draw(st.sampled_from(NODE_TYPES)), label=f"seed-{index}"
            )
        exporter.export()

        steps = data.draw(st.integers(min_value=1, max_value=12))
        for _ in range(steps):
            op = data.draw(mutation_ops)
            nodes = list(model.nodes.values())
            relations = list(model.relations.values())
            if op == "add-node":
                model.create_node(
                    data.draw(st.sampled_from(NODE_TYPES)),
                    label=data.draw(word),
                )
            elif op == "remove-node" and nodes:
                model.remove_node(data.draw(st.sampled_from(nodes)))
            elif op == "set-property" and nodes:
                data.draw(st.sampled_from(nodes)).set(
                    data.draw(st.sampled_from(PROPERTY_NAMES)), data.draw(word)
                )
            elif op == "delete-property" and nodes:
                node = data.draw(st.sampled_from(nodes))
                if node.properties:
                    del node.properties[
                        data.draw(st.sampled_from(sorted(node.properties)))
                    ]
            elif op == "add-relation" and nodes:
                model.connect(
                    data.draw(st.sampled_from(nodes)),
                    data.draw(st.sampled_from(["likes", "uses", "has", "runs"])),
                    data.draw(st.sampled_from(nodes)),
                )
            elif op == "remove-relation" and relations:
                model.remove_relation(data.draw(st.sampled_from(relations)))
            elif op == "set-relation-property" and relations:
                data.draw(st.sampled_from(relations)).set(
                    "since", data.draw(st.integers(min_value=1990, max_value=2005))
                )
            # interleave exports at random points: the exporter must cope
            # with both batched and step-by-step application.
            if data.draw(st.booleans()):
                assert incremental_text(exporter) == full_text(model)
        assert incremental_text(exporter) == full_text(model)


# -- update-language-driven programs (the write path queries actually take) ----


class TestUpdateScriptDrivenExport:
    """The same byte-identity invariant, but driven through the update
    sublanguage — the path :meth:`QueryService.apply_update` takes — with
    delete-heavy and insert-then-delete-interleaved shapes the raw random
    mutation suite reaches only rarely."""

    def test_delete_heavy_sequence(self, model, exporter):
        from repro.xquery.updates import apply_script

        for index, user in enumerate(list(model.nodes_of_type("User"))):
            apply_script(f"delete node {user.id}", model)
            if index % 2:  # batched and step-by-step application both
                assert incremental_text(exporter) == full_text(model)
        for document in list(model.nodes_of_type("Document")):
            apply_script(f"delete node {document.id}", model)
        assert incremental_text(exporter) == full_text(model)

    def test_insert_delete_interleaved_in_one_script(self, model, exporter):
        from repro.xquery.updates import apply_script

        apply_script(
            'insert node User id T1 with (label "transient");'
            " insert relation likes from T1 to N2;"
            ' replace value of T1.label with "still transient";'
            " delete node T1;"
            ' insert node Server id T2 with (label "survivor")',
            model,
        )
        text = incremental_text(exporter)
        assert text == full_text(model)
        assert "transient" not in text and "survivor" in text

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scripts=st.integers(min_value=1, max_value=6),
    )
    def test_random_update_scripts_keep_export_identical(self, seed, scripts):
        import random

        from repro.testing.models import random_model, random_update_script
        from repro.xquery.updates import apply_script

        model = random_model(seed, size=10)
        exporter = IncrementalExporter(model)
        exporter.export()
        rng = random.Random(seed * 7 + 1)
        for index in range(scripts):
            apply_script(random_update_script(rng, model), model)
            if index % 2:
                assert incremental_text(exporter) == full_text(model)
        assert incremental_text(exporter) == full_text(model)
