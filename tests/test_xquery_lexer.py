"""Unit tests for the XQuery lexer, especially the paper's quirks."""

import pytest

from repro.xquery.errors import XQueryStaticError
from repro.xquery.lexer import Lexer


def tokens_of(source):
    lexer = Lexer(source)
    result = []
    while True:
        token = lexer.next_token()
        if token.kind == "eof":
            return result
        result.append((token.kind, token.value))


class TestNamesAndVariables:
    def test_bare_name(self):
        assert tokens_of("kid") == [("name", "kid")]

    def test_variable(self):
        assert tokens_of("$x") == [("var", "x")]

    def test_quirk_dash_continues_variable_name(self):
        # "$n-1 is a variable with a three-letter name"
        assert tokens_of("$n-1") == [("var", "n-1")]

    def test_spaced_subtraction(self):
        assert tokens_of("$n - 1") == [
            ("var", "n"),
            ("symbol", "-"),
            ("integer", "1"),
        ]

    def test_parenthesized_subtraction(self):
        assert tokens_of("($n)-1") == [
            ("symbol", "("),
            ("var", "n"),
            ("symbol", ")"),
            ("symbol", "-"),
            ("integer", "1"),
        ]

    def test_qname(self):
        assert tokens_of("local:fact") == [("name", "local:fact")]

    def test_axis_double_colon_not_a_qname(self):
        assert tokens_of("parent::book") == [
            ("name", "parent"),
            ("symbol", "::"),
            ("name", "book"),
        ]

    def test_dollar_requires_name(self):
        with pytest.raises(XQueryStaticError):
            tokens_of("$ 1")


class TestNumbers:
    def test_integer(self):
        assert tokens_of("42") == [("integer", "42")]

    def test_decimal(self):
        assert tokens_of("1.5") == [("decimal", "1.5")]

    def test_leading_dot_decimal(self):
        assert tokens_of(".5") == [("decimal", ".5")]

    def test_double(self):
        assert tokens_of("1e3") == [("double", "1e3")]
        assert tokens_of("1.5E-2") == [("double", "1.5E-2")]

    def test_range_not_decimal(self):
        # "1..3" must not lex 1. as a decimal — it's 1 .. 3
        assert tokens_of("1..") == [("integer", "1"), ("symbol", "..")]


class TestStrings:
    def test_double_quoted(self):
        assert tokens_of('"hello"') == [("string", "hello")]

    def test_single_quoted(self):
        assert tokens_of("'hi'") == [("string", "hi")]

    def test_doubled_quote_escape(self):
        assert tokens_of('"say ""hi"""') == [("string", 'say "hi"')]

    def test_entities_in_strings(self):
        assert tokens_of('"&lt;&amp;&#65;"') == [("string", "<&A")]

    def test_unterminated(self):
        with pytest.raises(XQueryStaticError):
            tokens_of('"oops')

    @pytest.mark.parametrize(
        "source, reference, column",
        [
            ('"&#xZZ;"', "&#xZZ;", 2),
            ('"&#;"', "&#;", 2),
            ('"&#99999999;"', "&#99999999;", 2),
            ("<a>&#xZZ;</a>", "&#xZZ;", 4),
        ],
    )
    def test_malformed_character_reference_is_a_syntax_error(
        self, source, reference, column
    ):
        from repro.querycalc.service.errors import classify_error
        from repro.xquery import XQueryEngine

        with pytest.raises(XQueryStaticError) as caught:
            XQueryEngine().compile(source)
        error = caught.value
        assert error.code == "XPST0003"
        assert error.bare_message == f"invalid character reference {reference}"
        assert (error.line, error.column) == (1, column)
        assert classify_error(error).kind == "compile"

    @pytest.mark.parametrize(
        "source, column", [('"&bogus;"', 2), ("<a>&bogus;</a>", 4)]
    )
    def test_unknown_entity_is_reported_at_its_ampersand(self, source, column):
        from repro.xquery import XQueryEngine

        with pytest.raises(XQueryStaticError) as caught:
            XQueryEngine().compile(source)
        error = caught.value
        assert error.code == "XPST0003"
        assert error.bare_message == "unknown entity &bogus;"
        assert (error.line, error.column) == (1, column)

    def test_character_references_in_both_cases_and_with_leading_zeros(self):
        assert tokens_of('"&#65;&#x42;&#X43;&#0068;&#x0045;"') == [("string", "ABCDE")]


class TestSymbolsAndComments:
    def test_multichar_symbols(self):
        assert tokens_of("<= >= != << >> // := .. ::") == [
            ("symbol", s)
            for s in ["<=", ">=", "!=", "<<", ">>", "//", ":=", "..", "::"]
        ]

    def test_comment_skipped(self):
        assert tokens_of("1 (: comment :) 2") == [
            ("integer", "1"),
            ("integer", "2"),
        ]

    def test_nested_comments(self):
        assert tokens_of("(: outer (: inner :) still :) 5") == [("integer", "5")]

    def test_unterminated_comment(self):
        with pytest.raises(XQueryStaticError):
            tokens_of("(: forever")

    def test_location_tracking(self):
        lexer = Lexer("1 +\n  oops")
        lexer.next_token()
        lexer.next_token()
        token = lexer.next_token()
        assert token.line == 2 and token.column == 3
