"""The XQuery front end pinned against the parser it replaced.

Four pins keep :mod:`repro.xquery.lexer` and :mod:`repro.xquery.parser`
honest, each recorded with the earlier recursive-descent parser:

* ``PARSE_SHA256`` is a digest of the AST of every program in a fixed
  corpus: the shipped docgen modules and ``examples/xq/``, the assembled
  phase-1 program in both error regimes, the fuzz pins, 2,000 generated
  programs, generated calculus and search sources, and the XSLT select
  expressions.  The dump names every node's class and every field,
  ``line``/``column`` included: those fields have ``compare=False``, so
  ``==`` on the trees would not see a moved position.
* ``OPTIMIZE_SHA256`` is the digest of the same corpus after the
  optimizer, with the Galax ``trace`` bug both on and off, together with
  each module's :class:`OptimizerStats`.
* ``MALFORMED`` records, for inputs that must fail, the exact error:
  class, code, message, line and column.
* ``SOUP_SHA256`` is the digest of the outcome, tree or error, of
  fixed-seed printable and symbol soups.

A changed digest means a changed tree or a changed error: do not
re-record one unless a generator changed on purpose.
"""

import dataclasses
import hashlib
import random
import re
import string
from pathlib import Path

import pytest

from repro.collections import SearchRequest
from repro.collections.service import REQUEST_KINDS
from repro.docgen.xquery_impl.runner import (
    MODULES_DIR,
    MODULES_TC_DIR,
    SPLIT_DOCUMENT_XSLT,
    SPLIT_PROBLEMS_XSLT,
    assemble_main_program,
)
from repro.querycalc.via_xquery import XQueryCalculusBackend
from repro.testing.generator import ProgramGenerator
from repro.testing.models import (
    FT_COLLECTIONS,
    random_calculus_query,
    random_model,
    random_phrase,
)
from repro.xquery.errors import XQueryError
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import Parser, parse_query

REPO = Path(__file__).resolve().parent.parent
SEED = 20040522


def dump(node) -> str:
    """Every field of every node, positions included, as one string."""
    if dataclasses.is_dataclass(node):
        fields = ",".join(
            f"{field.name}={dump(getattr(node, field.name))}"
            for field in dataclasses.fields(node)
        )
        return f"{type(node).__name__}({fields})"
    if isinstance(node, (list, tuple)):
        return "[" + ",".join(dump(item) for item in node) + "]"
    if hasattr(node, "__dict__"):
        fields = ",".join(f"{name}={dump(value)}" for name, value in sorted(vars(node).items()))
        return f"{type(node).__name__}({fields})"
    return f"{type(node).__name__}:{node!r}"


def error_tuple(error: Exception) -> tuple:
    return (
        type(error).__name__,
        getattr(error, "code", None),
        getattr(error, "bare_message", str(error)),
        getattr(error, "line", None),
        getattr(error, "column", None),
    )


def outcome(source: str) -> str:
    try:
        return dump(parse_query(source))
    except XQueryError as error:
        return repr(error_tuple(error))


def _xslt_expressions():
    texts = [SPLIT_DOCUMENT_XSLT, SPLIT_PROBLEMS_XSLT, (REPO / "tests/test_xslt.py").read_text()]
    return [
        expression
        for text in texts
        for expression in re.findall(r'(?:select|test)="([^"]*)"', text)
    ]


def _calculus_sources():
    sources = []
    for seed in range(6):
        model = random_model(seed)
        backend = XQueryCalculusBackend(model)
        rng = random.Random(SEED + seed)
        sources += [
            backend.compile_to_xquery(random_calculus_query(rng, model)) for _ in range(40)
        ]
    return sources


def _search_sources():
    rng = random.Random(SEED)
    phrases = ["AT&T", 'say "hi"', "it's", "a&amp;b"]
    uris = ["docs/d0.xml", "docs/b&c.xml", 'notes/"q".xml', "models/m4.xml"]
    sources = []
    for _ in range(200):
        sources.append(
            SearchRequest(
                kind=rng.choice(REQUEST_KINDS),
                uri=rng.choice(uris),
                collection=rng.choice(FT_COLLECTIONS + [""]),
                phrase=rng.choice(phrases) if rng.random() < 0.2 else random_phrase(rng),
                width=rng.choice((10, 20, 40)),
                limit=rng.choice((0, 0, 1, 3)),
            ).source()
        )
    return sources


def _generated_programs():
    rng = random.Random(SEED)
    generator = ProgramGenerator(rng)
    programs = [generator.program().render() for _ in range(2000)]
    uris = ["docs/d0.xml", "notes/d1.xml", "models/m4.xml"]
    for _ in range(200):
        phrases = [random_phrase(rng) for _ in range(4)]
        programs.append(generator.collection_program(uris, FT_COLLECTIONS, phrases).render())
    return programs


def corpus():
    """The programs the digests cover, in a fixed order."""
    sources = []
    for directory in (MODULES_DIR, MODULES_TC_DIR, REPO / "examples/xq", REPO / "tests/corpus/fuzz"):
        sources += [path.read_text() for path in sorted(Path(directory).glob("*.xq"))]
    sources += [assemble_main_program("values"), assemble_main_program("exceptions")]
    sources += _generated_programs()
    sources += _calculus_sources()
    sources += _search_sources()
    sources += _xslt_expressions()
    return sources


#: recorded with the earlier recursive-descent parser over 2,687 programs
#: (parse d60ecdf6..., optimize c28c323d...), then re-recorded unchanged in
#: every other row when the fuzz pin type_typeswitch_case_var_card.xq joined.
CORPUS_PROGRAMS = 2688
PARSE_SHA256 = "171ec30ea629cc1b44b6d8d99c1eb898311c914a522b9a28a0dd9baf3573e079"
OPTIMIZE_SHA256 = "0653771a2236c484537d2959594d84bc742521512a8e462f3911c95ffcc0c649"


@pytest.fixture(scope="module")
def sources():
    return corpus()


def test_corpus_parses_to_the_same_trees(sources):
    assert len(sources) == CORPUS_PROGRAMS
    digest = hashlib.sha256()
    for source in sources:
        digest.update(outcome(source).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PARSE_SHA256


def test_corpus_optimizes_to_the_same_trees(sources):
    digest = hashlib.sha256()
    for source in sources:
        for trace_is_dead_code in (True, False):
            try:
                module = parse_query(source)
            except XQueryError:
                continue
            stats = optimize_module(module, trace_is_dead_code=trace_is_dead_code)
            digest.update(f"{dump(module)}|{stats.as_dict()}".encode())
            digest.update(b"\0")
    assert digest.hexdigest() == OPTIMIZE_SHA256


def nested(parens: int) -> str:
    """``1`` inside *parens* pairs of parentheses: one nesting level each,
    on top of the body's own."""
    return "(" * parens + "1" + ")" * parens


#: (source, class, code, message, line, column), each as the earlier parser
#: raised it, except the two rows marked deliberate.
MALFORMED = [
    ('(: never closed', 'XQueryStaticError', 'XPST0003', 'unterminated comment (: ... :)', 1, 1),
    ('1 (: outer (: inner :) still open', 'XQueryStaticError', 'XPST0003', 'unterminated comment (: ... :)', 1, 3),
    ('1 +\n  (: a\n  (: b :)\n', 'XQueryStaticError', 'XPST0003', 'unterminated comment (: ... :)', 2, 3),
    ('"oops', 'XQueryStaticError', 'XPST0003', 'unterminated string literal', 1, 1),
    ("'oops", 'XQueryStaticError', 'XPST0003', 'unterminated string literal', 1, 1),
    ('"a""', 'XQueryStaticError', 'XPST0003', 'unterminated string literal', 1, 1),
    ("concat('a', 'b)", 'XQueryStaticError', 'XPST0003', 'unterminated string literal', 1, 13),
    ('<a>', 'XQueryStaticError', 'XPST0003', 'unclosed element <a>', 1, 4),
    ('<a><b></a>', 'XQueryStaticError', 'XPST0003', 'mismatched tags: <b> closed by </a>', 1, 11),
    ('<a>\n  <b>x</c>\n</a>', 'XQueryStaticError', 'XPST0003', 'mismatched tags: <b> closed by </c>', 2, 11),
    ('<a x="1>', 'XQueryStaticError', 'XPST0003', 'unterminated attribute value', 1, 9),
    ('<a x=1/>', 'XQueryStaticError', 'XPST0003', 'expected a quoted attribute value', 1, 7),
    ('<a><!-- x</a>', 'XQueryStaticError', 'XPST0003', 'unterminated XML comment', 1, 8),
    ('<!-- x', 'XQueryStaticError', 'XPST0003', 'unterminated XML comment in constructor', 1, 5),
    ('<a><![CDATA[ x</a>', 'XQueryStaticError', 'XPST0003', 'unterminated CDATA section', 1, 13),
    ('<a><?pi x</a>', 'XQueryStaticError', 'XPST0003', 'unterminated processing instruction', 1, 8),
    ('<a>{1</a>', 'XQueryStaticError', 'XPST0003', "expected '}' to close enclosed expression, found symbol '>'", 1, 9),
    ('<a b="{1">', 'XQueryStaticError', 'XPST0003', 'unterminated string literal', 1, 9),
    ('<1/>', 'XQueryStaticError', 'XPST0003', 'expected an XML name', 1, 2),
    ('1 = 2 = 3', 'XQueryStaticError', 'XPST0003', "unexpected symbol '=' after end of query", 1, 7),
    ('(1 = 2 = 3)', 'XQueryStaticError', 'XPST0003', "expected ')', found symbol '='", 1, 8),
    ('1 eq 2 ne 3', 'XQueryStaticError', 'XPST0003', "unexpected name 'ne' after end of query", 1, 8),
    ('1 to 2 to 3', 'XQueryStaticError', 'XPST0003', "unexpected name 'to' after end of query", 1, 8),
    ('1 instance of xs:integer instance of xs:integer', 'XQueryStaticError', 'XPST0003', "unexpected name 'instance' after end of query", 1, 26),
    ('1 treat as xs:integer treat as xs:integer', 'XQueryStaticError', 'XPST0003', "unexpected name 'treat' after end of query", 1, 23),
    ('1 castable as xs:integer castable as xs:integer', 'XQueryStaticError', 'XPST0003', "unexpected name 'castable' after end of query", 1, 26),
    ('1 cast as xs:integer cast as xs:integer', 'XQueryStaticError', 'XPST0003', "unexpected name 'cast' after end of query", 1, 22),
    ('1 treat 2', 'XQueryStaticError', 'XPST0003', "expected keyword 'as', found integer '2'", 1, 9),
    ('for $x in 1 to 3 $x', 'XQueryStaticError', 'XPST0003', "expected keyword 'return', found var 'x'", 1, 18),
    ('let $x := 1', 'XQueryStaticError', 'XPST0003', "expected keyword 'return', found end of query", 1, 12),
    ('for $x at in 1 return 1', 'XQueryStaticError', 'XPST0003', "expected var, found name 'in'", 1, 11),
    ('for $x in 1 order $x return 1', 'XQueryStaticError', 'XPST0003', "expected keyword 'by', found var 'x'", 1, 19),
    ('$', 'XQueryStaticError', 'XPST0003', "expected a variable name after '$'", 1, 1),
    ('1 + $ 2', 'XQueryStaticError', 'XPST0003', "expected a variable name after '$'", 1, 5),
    ('$1', 'XQueryStaticError', 'XPST0003', "expected a variable name after '$'", 1, 1),
    ('1 +', 'XQueryStaticError', 'XPST0003', 'expected an expression, found end of query', 1, 4),
    ('(1, 2', 'XQueryStaticError', 'XPST0003', "expected ')', found end of query", 1, 6),
    ('f(1,', 'XQueryStaticError', 'XPST0003', 'expected an expression, found end of query', 1, 5),
    ('a[1', 'XQueryStaticError', 'XPST0003', "expected ']', found end of query", 1, 4),
    ('child::', 'XQueryStaticError', 'XPST0003', 'expected name, found end of query', 1, 8),
    ('@', 'XQueryStaticError', 'XPST0003', 'expected name, found end of query', 1, 2),
    ('if (1) then 2', 'XQueryStaticError', 'XPST0003', "expected keyword 'else', found end of query", 1, 14),
    ('1 + if (1) then 2 else 3', 'XQueryStaticError', 'XPST0003', "unexpected name 'if' in expression position", 1, 5),
    ('some $x in (1, 2) $x', 'XQueryStaticError', 'XPST0003', "expected keyword 'satisfies', found var 'x'", 1, 19),
    ('typeswitch (1) default return 2', 'XQueryStaticError', 'XPST0003', 'typeswitch requires at least one case clause', 1, 16),
    ('try { 1 } catch { 2', 'XQueryStaticError', 'XPST0003', "expected '}', found end of query", 1, 20),
    ('element {1} {2', 'XQueryStaticError', 'XPST0003', "expected '}', found end of query", 1, 15),
    ('element a {{1}}', 'XQueryStaticError', 'XPST0003', "unexpected name 'a' after end of query", 1, 9),
    ('declare function local:f($a) { $a }', 'XQueryStaticError', 'XPST0003', "expected ';', found end of query", 1, 36),
    ('declare function item() { 1 }; 1', 'XQueryStaticError', 'XPST0003', "'item' is a reserved function name", 1, 22),
    ('declare bogus x; 1', 'XQueryStaticError', 'XPST0003', "unknown declaration name 'bogus'", 1, 9),
    ('declare option x "y"', 'XQueryStaticError', 'XPST0003', 'unterminated declaration', 1, 21),
    ('xquery version 1; 1', 'XQueryStaticError', 'XPST0003', "expected string, found integer '1'", 1, 16),
    ('1 2', 'XQueryStaticError', 'XPST0003', "unexpected integer '2' after end of query", 1, 3),
    ('#', 'XQueryStaticError', 'XPST0003', "unexpected character '#'", 1, 1),
    ('1 ! 2', 'XQueryStaticError', 'XPST0003', "unexpected character '!'", 1, 3),
    # deliberate: the earlier lexer reported column 9, past the reference
    ('"&bogus;"', 'XQueryStaticError', 'XPST0003', 'unknown entity &bogus;', 1, 2),
    # deliberate: the earlier lexer reported column 11, past the reference
    ('<a>&bogus;</a>', 'XQueryStaticError', 'XPST0003', 'unknown entity &bogus;', 1, 4),
    ('"&lt"', 'XQueryStaticError', 'XPST0003', 'unterminated entity reference', 1, 2),
    ('"&#xZZ;"', 'XQueryStaticError', 'XPST0003', 'invalid character reference &#xZZ;', 1, 2),
    ('let $x := 1\nreturn\n  $x +', 'XQueryStaticError', 'XPST0003', 'expected an expression, found end of query', 3, 7),
    ('1\n  +\n)', 'XQueryStaticError', 'XPST0003', "expected an expression, found symbol ')'", 3, 1),
    ('<a x=', 'XQueryStaticError', 'XPST0003', 'unterminated attribute value', 1, 7),
    ('(: a :) (: b', 'XQueryStaticError', 'XPST0003', 'unterminated comment (: ... :)', 1, 9),
    ('1.2.3', 'XQueryStaticError', 'XPST0003', "unexpected decimal '.3' after end of query", 1, 4),
    ('<a>&amp</a>', 'XQueryStaticError', 'XPST0003', 'unterminated entity reference', 1, 4),
    (nested(500), 'XQueryStaticError', 'XPST0003', 'expression nesting exceeds 500 levels', 1, 501),
    (nested(501), 'XQueryStaticError', 'XPST0003', 'expression nesting exceeds 500 levels', 1, 501),
]


@pytest.mark.parametrize(
    "source,kind,code,message,line,column", MALFORMED, ids=[row[0][:24] for row in MALFORMED]
)
def test_malformed_input_fails_as_before(source, kind, code, message, line, column):
    with pytest.raises(XQueryError) as caught:
        parse_query(source)
    assert error_tuple(caught.value) == (kind, code, message, line, column)


def test_deepest_legal_nesting_parses():
    module = parse_query(nested(Parser.MAX_NESTING - 1))
    assert module.body.value == 1


def soups():
    rng = random.Random(SEED)
    symbols = "()<>{}$/@[]'\"1ax,+= "
    texts = []
    for alphabet, size in ((string.printable, 40), (symbols, 30)):
        for _ in range(2000):
            texts.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(size + 1))))
    return texts


#: recorded with the earlier parser, its unknown-entity position corrected as
#: in ``MALFORMED`` (three printable soups hit that error).
SOUP_SHA256 = "f03da78afc57451b3404fc48d82403487f40bfbcfc57b56ed797170efc23e89f"


def test_soups_fail_or_parse_as_before():
    digest = hashlib.sha256()
    for text in soups():
        digest.update(outcome(text).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == SOUP_SHA256
