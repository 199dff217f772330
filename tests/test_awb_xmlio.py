"""Tests for AWB model XML export/import and metamodel export."""

import hashlib

import pytest

from repro.awb import (
    Model,
    ModelImportError,
    export_metamodel,
    export_model,
    export_model_text,
    import_model_text,
    load_metamodel,
)
from repro.xmlio import serialize


@pytest.fixture()
def model():
    mm = load_metamodel("it-architecture")
    m = Model(mm, name="exported")
    system = m.create_node("SystemBeingDesigned", label="Core")
    alice = m.create_node(
        "User", label="Alice", birthYear=1970,
        biography="<p>Architect &amp; <b>builder</b></p>",
    )
    m.connect(system, "has", alice, since=2001)
    return m


class TestExport:
    def test_root_shape(self, model):
        root = export_model(model).document_element()
        assert root.name == "awb-model"
        assert root.get_attribute("metamodel") == "it-architecture"
        assert len(root.child_elements("node")) == 2
        assert len(root.child_elements("relation")) == 1

    def test_scalar_property_types_annotated(self, model):
        text = export_model_text(model)
        assert '<property name="birthYear" type="integer">1970</property>' in text

    def test_html_property_exports_as_markup(self, model):
        # the schema-drift behaviour: html properties become child elements.
        text = export_model_text(model)
        assert "<html-value>" in text and "<b>builder</b>" in text

    def test_relation_attributes(self, model):
        root = export_model(model).document_element()
        relation = root.child_elements("relation")[0]
        assert relation.get_attribute("source") == "N1"
        assert relation.get_attribute("target") == "N2"
        assert relation.get_attribute("type") == "has"


class TestRoundtrip:
    def test_full_roundtrip(self, model):
        text = export_model_text(model)
        rebuilt = import_model_text(text, model.metamodel)
        assert rebuilt.stats()["nodes"] == 2
        assert rebuilt.stats()["relations"] == 1
        alice = rebuilt.node("N2")
        assert alice.get("birthYear") == 1970
        assert "<b>builder</b>" in alice.get("biography")

    def test_relation_properties_roundtrip(self, model):
        rebuilt = import_model_text(export_model_text(model), model.metamodel)
        relation = next(iter(rebuilt.relations.values()))
        assert relation.properties["since"] == 2001

    def test_booleans_roundtrip(self):
        mm = load_metamodel("awb-itself")
        m = Model(mm)
        m.create_node("NodeTypeDef", label="X", abstract=True)
        rebuilt = import_model_text(export_model_text(m), mm)
        assert rebuilt.node("N1").get("abstract") is True


class TestImportErrors:
    def test_wrong_root(self):
        with pytest.raises(ModelImportError):
            import_model_text("<nope/>", load_metamodel("it-architecture"))

    def test_node_missing_id(self):
        xml = '<awb-model><node type="User"/></awb-model>'
        with pytest.raises(ModelImportError):
            import_model_text(xml, load_metamodel("it-architecture"))

    def test_dangling_relation_endpoint(self):
        xml = (
            '<awb-model><node id="N1" type="User"/>'
            '<relation id="R1" type="has" source="N1" target="N99"/></awb-model>'
        )
        with pytest.raises(ModelImportError):
            import_model_text(xml, load_metamodel("it-architecture"))


class TestMetamodelExport:
    def test_shape(self):
        root = export_metamodel(load_metamodel("it-architecture"))
        assert root.name == "metamodel"
        assert root.get_attribute("label-property") == "label"
        names = {e.get_attribute("name") for e in root.child_elements("node-type")}
        assert {"User", "Superuser", "System"} <= names

    def test_parent_links(self):
        root = export_metamodel(load_metamodel("it-architecture"))
        superuser = [
            e
            for e in root.child_elements("node-type")
            if e.get_attribute("name") == "Superuser"
        ][0]
        assert superuser.get_attribute("parent") == "User"

    def test_relation_hierarchy(self):
        root = export_metamodel(load_metamodel("it-architecture"))
        favors = [
            e
            for e in root.child_elements("relation-type")
            if e.get_attribute("name") == "favors"
        ][0]
        assert favors.get_attribute("parent") == "likes"

    def test_serializes(self):
        text = serialize(export_metamodel(load_metamodel("glass-catalog")))
        assert "node-type" in text


#: sha256 over ``export_digest_texts()``, recorded before the exporter
#: built each element in one pass.  Never re-record it unless a model
#: generator changed on purpose.
EXPORT_DIGEST = (
    "33852cec80e6bffbfacc2b9688e4f70a5808a86bdded30e7624c5f2982669626"
)


def export_digest_texts():
    """Indented and compact exports of the repo's model generators, plus a
    hand-built model covering html (well-formed and not), booleans, floats
    and relation properties."""
    from bench.workloads import calculus_model
    from repro.testing.models import random_model
    from repro.workloads import make_awb_self_model, make_glass_catalog, make_it_model

    mixed = Model(load_metamodel("it-architecture"), name="mixed")
    system = mixed.create_node("SystemBeingDesigned", label="Core", active=True)
    user = mixed.create_node(
        "User", label="Ann", birthYear=1970, weight=2.5,
        biography="<p>Architect &amp; <b>builder</b></p>",
    )
    broken = mixed.create_node("User", label="Bob", biography="<p>unclosed")
    mixed.connect(system, "has", user, since=2001, note="x < y")
    mixed.connect(user, "likes", broken, strong=False, score=0.25)
    models = [
        calculus_model(),
        make_it_model(),
        make_it_model(scale=48),
        make_glass_catalog(),
        make_awb_self_model(),
        random_model(7, size=60, html_properties=True),
        mixed,
    ]
    for model in models:
        yield export_model_text(model)
        yield export_model_text(model, indent=False)


def export_digest():
    digest = hashlib.sha256()
    for text in export_digest_texts():
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def test_export_text_matches_the_recorded_digest():
    assert export_digest() == EXPORT_DIGEST
