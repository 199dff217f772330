"""The XML scanner pinned against the parser it replaced.

Three pins keep :mod:`repro.xmlio`'s parser honest:

* ``MALFORMED`` records, for each error site of the earlier token-stream
  parser, the exception it raised: type, message, line and column.  The
  scanner must raise exactly the same.
* ``ROUND_TRIP_SHA256`` is the digest of ``serialize(parse_document(x))``
  over a fixed corpus (model exports, docgen templates and documents, the
  search benchmark's corpus, the fuzz stores' documents), recorded with
  the earlier parser.  A changed digest means a changed tree.
* a hypothesis property: serialize → parse → serialize is a fixed point
  over random XDM trees, keeping whitespace text or dropping it.
"""

import hashlib
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awb import export_model_text
from repro.docgen import NativeDocumentGenerator
from repro.testing.models import random_document_store, random_model
from repro.workloads import (
    error_prone_template,
    glass_catalog_template,
    make_awb_self_model,
    make_glass_catalog,
    make_it_model,
    simple_list_template,
    system_context_template,
    table_template,
    toc_heavy_template,
)
from repro.xdm import (
    CommentNode,
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
)
from repro.xmlio import parse_document, serialize

REPO = Path(__file__).resolve().parent.parent

#: (input, exception type, message, line, column); a ``ValueError`` comes
#: from a malformed character reference and carries no location.
MALFORMED = [
    ("<a", "XmlSyntaxError", "unterminated start tag", 1, 3),
    ('<a x="1"', "XmlSyntaxError", "unterminated start tag", 1, 9),
    ("<1a/>", "XmlSyntaxError", "expected a name", 1, 2),
    ('<a 1="x"/>', "XmlSyntaxError", "expected a name", 1, 4),
    ('<a x"1"/>', "XmlSyntaxError", "expected '='", 1, 5),
    ("<a x=1/>", "XmlSyntaxError", "expected quoted attribute value", 1, 4),
    ('<a x="1/>', "XmlSyntaxError", "unterminated attribute value", 1, 4),
    ("<a x='1\"/>", "XmlSyntaxError", "unterminated attribute value", 1, 4),
    ('<a x="1" x="2"/>', "XmlSyntaxError", "duplicate attribute 'x'", 1, 10),
    ("<a x=\"1\" y=\"2\"\n   x='3'/>", "XmlSyntaxError", "duplicate attribute 'x'", 2, 4),
    ("<a><b x='1' x='1'><c/></b></a>", "XmlSyntaxError", "duplicate attribute 'x'", 1, 13),
    ('<a x="1" x=>', "XmlSyntaxError", "expected quoted attribute value", 1, 10),
    ('<a x="1" x="&bad;"/>', "XmlSyntaxError", "unknown entity &bad;", 1, 10),
    ("<a>\n<!-- oops</a>", "XmlSyntaxError", "unterminated comment", 2, 1),
    ("<a><![CDATA[ never</a>", "XmlSyntaxError", "unterminated CDATA section", 1, 4),
    ("<a><?pi never</a>", "XmlSyntaxError", "unterminated processing instruction", 1, 4),
    ('<!DOCTYPE a [<!ENTITY x "y">', "XmlSyntaxError", "unterminated DOCTYPE", 1, 1),
    ("<a></b>", "XmlSyntaxError", "mismatched tag: <a> closed by </b>", 1, 4),
    ("<a>\n  <b>\n</a>", "XmlSyntaxError", "mismatched tag: <b> closed by </a>", 3, 1),
    ("<a>\n\n\t <b></c></a>", "XmlSyntaxError", "mismatched tag: <b> closed by </c>", 3, 6),
    ("<a><b></a></b>", "XmlSyntaxError", "mismatched tag: <b> closed by </a>", 1, 7),
    ("</a>", "XmlSyntaxError", "closing tag </a> with no open element", 1, 1),
    ("<a/></a>", "XmlSyntaxError", "closing tag </a> with no open element", 1, 5),
    ("<a>\n</a>\n</a>", "XmlSyntaxError", "closing tag </a> with no open element", 3, 1),
    ("<a><b></b>", "XmlSyntaxError", "unclosed element <a>", 1, 11),
    ("", "XmlSyntaxError", "document has no element", 1, 1),
    ("   just text   ", "XmlSyntaxError", "document has no element", 1, 1),
    ("<!-- c --><?pi x?>", "XmlSyntaxError", "document has no element", 1, 1),
    (
        "<?xml version='1.0'?>\n<!-- only prolog -->\n",
        "XmlSyntaxError",
        "document has no element",
        1,
        1,
    ),
    ("<a>&nope;</a>", "XmlSyntaxError", "unknown entity &nope;", 1, 4),
    ("<a>x &amp y</a>", "XmlSyntaxError", "unterminated entity reference", 1, 6),
    ("<a>\n<b>&lt;&gt;&unknown;</b></a>", "XmlSyntaxError", "unknown entity &unknown;", 2, 12),
    ("<r>京都 &foo;</r>", "XmlSyntaxError", "unknown entity &foo;", 1, 7),
    # an attribute value's entity error is placed from the attribute's name
    ('<a x="&bogus;"/>', "XmlSyntaxError", "unknown entity &bogus;", 1, 4),
    ('<a>\n  <b y="1" x="a &amp"/></a>', "XmlSyntaxError", "unterminated entity reference", 2, 14),
    # text outside the root element is decoded too
    ("text &bad; <a/>", "XmlSyntaxError", "unknown entity &bad;", 1, 6),
    ("<a/>\ntrailing &oops;", "XmlSyntaxError", "unknown entity &oops;", 2, 10),
    ("</ a>", "XmlSyntaxError", "expected a name", 1, 3),
    ("<a></a x>", "XmlSyntaxError", "expected '>'", 1, 8),
    ("<a></a", "XmlSyntaxError", "expected '>'", 1, 7),
    ("<", "XmlSyntaxError", "expected a name", 1, 2),
    ('<a>\r\n<b x="1" / ></a>', "XmlSyntaxError", "expected a name", 2, 10),
    ("<!foo>", "XmlSyntaxError", "expected a name", 1, 2),
    ("<café/>", "XmlSyntaxError", "expected a name", 1, 5),
    ("<a>&#xZZ;</a>", "ValueError", "invalid literal for int() with base 16: 'ZZ'", None, None),
    ("<a>&#99999999;</a>", "ValueError", "chr() arg not in range(0x110000)", None, None),
    ("<a>&#;</a>", "ValueError", "invalid literal for int() with base 10: ''", None, None),
]


@pytest.mark.parametrize("text,kind,message,line,column", MALFORMED)
def test_malformed_input_raises_as_before(text, kind, message, line, column):
    with pytest.raises(ValueError) as info:
        parse_document(text)
    error = info.value
    assert type(error).__name__ == kind
    if kind == "XmlSyntaxError":
        assert str(error) == f"{message} (line {line}, column {column})"
        assert (error.line, error.column) == (line, column)
    else:
        assert str(error) == message


#: well-formed corner cases, each with the earlier parser's serialization
#: (whitespace text dropped, then kept).
ODDITIES = [
    ('<a x="1"y="2"/>', '<a x="1" y="2"/>', '<a x="1" y="2"/>'),
    ("<a/><b>t</b>", "<a/><b>t</b>", "<a/><b>t</b>"),
    ("lead <a/> trail", "lead <a/> trail", "lead <a/> trail"),
    ("<a>x<![CDATA[<y>]]>z</a>", "<a>x&lt;y&gt;z</a>", "<a>x&lt;y&gt;z</a>"),
    ("<a>&#32;<b/>&#x9;</a>", "<a><b/></a>", "<a> <b/>\t</a>"),
    ("<a>&#160;</a>", "<a/>", "<a>\xa0</a>"),
    ("<?XML version='1.0'?><a/>", "<a/>", "<a/>"),
    ("<?pi\tx y ?><a/>", "<?pi\tx y?><a/>", "<?pi\tx y?><a/>"),
    ("<? bare?><a/>", "<? bare?><a/>", "<? bare?><a/>"),
    ("<a><?p?></a>", "<a><?p ?></a>", "<a><?p ?></a>"),
    ("<a  b = '&quot;x&apos;' >\n</a >", '<a b="&quot;x\'"/>', '<a b="&quot;x\'">\n</a>'),
    ('<a x="line\nnext&#10;"/>', '<a x="line&#10;next&#10;"/>', '<a x="line&#10;next&#10;"/>'),
    ('<a x="<"/>', '<a x="&lt;"/>', '<a x="&lt;"/>'),
    ("<!DOCTYPE r [<!ELEMENT r ANY>]><r/>", "<r/>", "<r/>"),
    ("<_:r-1.x a:b='c'/>", '<_:r-1.x a:b="c"/>', '<_:r-1.x a:b="c"/>'),
    ("<a><!----></a>", "<a><!----></a>", "<a><!----></a>"),
    ("<a>\r\n</a>", "<a/>", "<a>\r\n</a>"),
    ("<a>&#65;&#x42;&#X43;</a>", "<a>ABC</a>", "<a>ABC</a>"),
]


@pytest.mark.parametrize("text,dropped,kept", ODDITIES)
def test_corner_cases_parse_as_before(text, dropped, kept):
    assert serialize(parse_document(text)) == dropped
    assert serialize(parse_document(text, keep_whitespace_text=True)) == kept


def _docgen_templates():
    return [
        system_context_template(),
        simple_list_template("User"),
        toc_heavy_template(4),
        table_template("User", "Program", "uses"),
        glass_catalog_template(),
        error_prone_template(),
    ]


def _search_corpus():
    from bench.workloads import DOCUMENTS, FIXTURE_SEED, corpus

    return [text for _uri, text in corpus(random.Random(FIXTURE_SEED), DOCUMENTS)]


def round_trip_corpus():
    """The documents the digest covers, in a fixed order."""
    models = [make_it_model(scale) for scale in (3, 6, 10)]
    models += [random_model(seed) for seed in range(4)]
    models += [random_model(9, html_properties=True)]
    models += [make_glass_catalog(), make_awb_self_model()]
    texts = [export_model_text(model, indent) for model in models for indent in (True, False)]
    templates = _docgen_templates()
    texts += templates
    it_model, glass_model = models[1], models[-2]
    for template in templates:
        model = glass_model if template == glass_catalog_template() else it_model
        document = NativeDocumentGenerator(model).generate(template).document
        texts += [serialize(document, indent=True), serialize(document)]
    texts += _search_corpus()
    for seed in range(6):
        store = random_document_store(seed)
        texts += [text for _uri, text in store.texts()]
    texts += [path.read_text() for path in sorted((REPO / "tests/corpus/fuzz").glob("*.xml"))]
    return texts


#: recorded with the earlier token-stream parser.
ROUND_TRIP_SHA256 = "14038fb9acdbb67f5d8c945667a420697e3573ae8721f5ef36ba56f3e05ec0a6"
ROUND_TRIP_DOCUMENTS = 1316


def round_trip_digest(texts):
    digest = hashlib.sha256()
    for text in texts:
        for keep in (False, True):
            digest.update(serialize(parse_document(text, keep_whitespace_text=keep)).encode())
            digest.update(b"\0")
    return digest.hexdigest()


def test_round_trip_is_byte_identical_to_the_earlier_parser():
    texts = round_trip_corpus()
    assert len(texts) == ROUND_TRIP_DOCUMENTS
    assert round_trip_digest(texts) == ROUND_TRIP_SHA256


# -- serialize → parse → serialize is a fixed point ----------------------------

_NAME_START = string.ascii_letters + "_:"
names = st.builds(
    lambda first, rest: first + rest,
    st.sampled_from(_NAME_START),
    st.text(alphabet=_NAME_START + string.digits + ".-", max_size=5),
)
texts = st.text(
    alphabet=st.one_of(
        st.sampled_from(" \t\n\r<>&\"';=/?!-[]"),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
comments = texts.filter(lambda text: "--" not in text and not text.endswith("-"))
pi_texts = texts.filter(lambda text: "?>" not in text)


@st.composite
def trees(draw, depth=3):
    node = ElementNode(draw(names))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        node.set_attribute(name, draw(texts))
    for _ in range(draw(st.integers(0, 3)) if depth else 0):
        kind = draw(st.sampled_from(("element", "text", "comment", "pi")))
        if kind == "element":
            node.append(draw(trees(depth=depth - 1)))
        elif kind == "text":
            node.append(TextNode(draw(texts)))
        elif kind == "comment":
            node.append(CommentNode(draw(comments)))
        else:
            node.append(ProcessingInstructionNode(draw(names), draw(pi_texts)))
    return DocumentNode([node])


@settings(max_examples=150, deadline=None)
@given(trees(), st.booleans())
def test_serialize_parse_serialize_is_a_fixed_point(tree, keep):
    once = serialize(parse_document(serialize(tree), keep_whitespace_text=keep))
    twice = serialize(parse_document(once, keep_whitespace_text=keep))
    assert once == twice
