"""Tests for the XQuery implementation of the document generator."""

import pytest

from repro.awb import Model, load_metamodel
from repro.docgen import XQueryDocumentGenerator
from repro.docgen.xquery_impl import assemble_main_program, read_module
from repro.xmlio import serialize
from repro.xquery import parse_query


@pytest.fixture(scope="module")
def model():
    m = Model(load_metamodel("it-architecture"))
    m.create_node("SystemBeingDesigned", label="Sys")
    alice = m.create_node("User", label="Alice", birthYear=1970)
    bob = m.create_node("Superuser", label="Bob")
    ledger = m.create_node("Program", label="LedgerD")
    m.connect(alice, "uses", ledger)
    m.connect(alice, "likes", bob)
    return m


@pytest.fixture(scope="module")
def generator(model):
    return XQueryDocumentGenerator(model)


class TestProgramAssembly:
    def test_main_program_parses(self):
        module = parse_query(assemble_main_program())
        assert len(module.functions) > 20
        assert len(module.variables) == 3  # model, metamodel, template

    def test_phase_programs_parse(self):
        for name in (
            "phase_omissions.xq",
            "phase_toc.xq",
            "phase_replace.xq",
            "phase_strip.xq",
        ):
            module = parse_query(read_module(name))
            assert module.body is not None, name

    def test_modules_are_read_once_per_generator(self, model, monkeypatch):
        """The first ``generate`` reads the nine module files it compiles;
        a later one finds every program compiled and reads none."""
        from repro.docgen.xquery_impl import runner

        reads = []
        read_module = runner.read_module

        def counting(name):
            reads.append(name)
            return read_module(name)

        monkeypatch.setattr(runner, "read_module", counting)
        generator = XQueryDocumentGenerator(model)
        generator.generate("<html><label/></html>")
        assert len(reads) == 9 and len(set(reads)) == 9
        reads.clear()
        generator.generate("<html><for nodes='all.User'><label/></for></html>")
        assert reads == []


class TestGeneration:
    def test_passthrough(self, generator):
        result = generator.generate("<html><p class='x'>hi</p></html>")
        assert serialize(result.document) == '<html><p class="x">hi</p></html>'

    def test_for_with_if(self, generator):
        template = (
            '<html><for nodes="all.User" sort="label">'
            '<if><test><focus-is-type type="Superuser"/></test>'
            "<then><b><label/></b></then><else><label/></else></if>"
            "</for></html>"
        )
        result = generator.generate(template)
        assert serialize(result.document) == "<html>Alice<b>Bob</b></html>"

    def test_follow_spec(self, generator):
        template = (
            '<html><for nodes="all.User" sort="label">'
            '<for nodes="follow.uses"><label/></for></for></html>'
        )
        assert generator.generate(template).document.string_value() == "LedgerD"

    def test_property_value_with_default(self, generator):
        template = (
            '<html><for nodes="all.Superuser">'
            '<property-value name="birthYear" default="?"/></for></html>'
        )
        assert generator.generate(template).document.string_value() == "?"

    def test_sections_and_toc(self, generator):
        template = (
            "<html><table-of-contents/>"
            "<section><heading>One</heading>"
            "<section><heading>Two</heading><p>x</p></section></section></html>"
        )
        result = generator.generate(template)
        text = serialize(result.document)
        assert [(e.level, e.text) for e in result.toc] == [(1, "One"), (2, "Two")]
        assert 'href="#sec-1"' in text and 'id="sec-2"' in text
        assert "INTERNAL-DATA" not in text

    def test_omissions(self, generator):
        template = (
            '<html><for nodes="all.Superuser"><label/></for>'
            '<table-of-omissions types="User"/></html>'
        )
        text = serialize(generator.generate(template).document)
        assert "Alice" in text and "data-node-id" in text

    def test_relation_table(self, generator):
        template = (
            '<html><table rows="all.User" cols="all.Program" relation="uses"/></html>'
        )
        text = serialize(generator.generate(template).document)
        assert "row\\col" in text and "✓" in text

    def test_replace_phrase(self, generator):
        template = (
            "<html><p>pre MARKER post</p>"
            '<replace-phrase phrase="MARKER"><b>t</b></replace-phrase></html>'
        )
        text = serialize(generator.generate(template).document)
        assert "<p>pre <b>t</b> post</p>" in text

    def test_query_directive(self, generator):
        template = (
            "<html><query>"
            '<start type="User"/><collect sort-by="label" order="descending"/>'
            "</query></html>"
        )
        text = serialize(generator.generate(template).document)
        assert text.index("Bob") < text.index("Alice")

    def test_problems_stream(self, generator):
        result = generator.generate("<html><label/></html>")
        assert len(result.problems) == 1
        assert result.problems[0].severity == "error"
        assert result.problems[0].directive == "label"

    def test_five_phases_measured(self, generator):
        result = generator.generate("<html><p/></html>")
        assert result.metrics["phases"] == 5
        assert len(result.metrics["bytes_per_phase"]) == 5
        assert result.metrics["bytes_copied_total"] > 0

    def test_visited_tracked(self, generator):
        template = '<html><for nodes="all.User"><label/></for></html>'
        assert len(generator.generate(template).visited_node_ids) == 2

    def test_internal_data_always_stripped(self, generator):
        template = (
            '<html><for nodes="all.User"><label/></for>'
            "<section><heading>H</heading><p/></section></html>"
        )
        text = serialize(generator.generate(template).document)
        assert "INTERNAL-DATA" not in text
        assert "VISITED" not in text


class TestHtmlProperties:
    def test_html_property_embeds_markup(self):
        from repro.awb import Model, load_metamodel

        model = Model(load_metamodel("it-architecture"))
        model.create_node(
            "User",
            label="Writer",
            biography="plain <b>bold</b> tail",
        )
        template = (
            '<html><for nodes="all.User">'
            '<property-value name="biography"/></for></html>'
        )
        for regime in ("values", "exceptions"):
            generator = XQueryDocumentGenerator(model, error_regime=regime)
            text = serialize(generator.generate(template).document)
            assert "<b>bold</b>" in text, regime

    def test_missing_html_wrapper_falls_back_to_text(self):
        from repro.awb import Model, load_metamodel

        model = Model(load_metamodel("it-architecture"))
        node = model.create_node("User", label="U")
        node.set("note", "just text")  # ad-hoc string property
        template = (
            '<html><for nodes="all.User">'
            '<property-value name="note"/></for></html>'
        )
        result = XQueryDocumentGenerator(model).generate(template)
        assert result.document.string_value() == "just text"


class TestExportInvalidation:
    def test_model_changes_need_invalidate(self):
        model = Model(load_metamodel("it-architecture"))
        model.create_node("User", label="Alice")
        generator = XQueryDocumentGenerator(model)
        template = '<html><for nodes="all.User"><label/></for></html>'
        assert generator.generate(template).document.string_value() == "Alice"

        model.create_node("User", label="Bob")
        # the cached export is stale until invalidated...
        assert generator.generate(template).document.string_value() == "Alice"
        generator.invalidate_export()
        assert generator.generate(template).document.string_value() == "AliceBob"
