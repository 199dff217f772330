"""Token definitions for the XQuery lexer: the token type and the table of
XQuery's lexical syntax."""

from __future__ import annotations

from typing import NamedTuple


class Token(NamedTuple):
    """One lexical token.

    ``kind`` ∈ {``name``, ``var``, ``integer``, ``decimal``, ``double``,
    ``string``, ``symbol``, ``eof``}.  ``value`` holds the name text, the
    variable name (without ``$``), the literal value as text, or the symbol.
    ``pos`` is the character offset of the token start; ``line``/``column``
    are 1-based for error messages.
    """

    kind: str
    value: str
    pos: int
    line: int
    column: int

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "symbol" and self.value in symbols

    def is_name(self, *names: str) -> bool:
        return self.kind == "name" and self.value in names


#: one NCName — the paper's quirk characters ``-`` and ``.`` included, so
#: ``$n-1`` is a variable with a three-character name.
NCNAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"

#: an NCName with at most one ``prefix:`` (never ``::``, an axis, nor
#: ``:=``: the local part must start like a name).
QNAME = rf"{NCNAME}(?::{NCNAME})?"

#: XQuery's lexical syntax, one row per token kind: (kind, pattern).  The
#: lexer joins the rows into one alternation, tried in this order at the
#: cursor after whitespace, and the row that matched names the token.
#: Three rows are not token kinds: ``comment`` opens a nested ``(: :)``
#: comment, ``dollar`` is a ``$`` with no name after it (an error), and
#: ``quote`` is a string literal the ``string`` row cannot take, one with
#: an entity reference or no closing quote, which the lexer scans itself.
TOKEN_TABLE = (
    ("comment", r"\(:"),
    ("name", QNAME),
    # longest first; a "." before a digit starts a number (".5").
    ("symbol", r"<=|>=|!=|<<|>>|//|:=|\.\.|::|\{\{|\}\}|\.(?![0-9])|[()\[\]{},;/@*+\-=<>|?:]"),
    ("var", rf"\${QNAME}"),
    ("dollar", r"\$"),
    # ".." is the parent step, never a decimal point: "1..3" is 1 .. 3.
    ("double", r"(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+"),
    ("decimal", r"[0-9]+\.(?!\.)[0-9]*|\.[0-9]+"),
    ("integer", r"[0-9]+"),
    # a doubled quote escapes itself, so a closing quote is never followed
    # by another (the lookahead stops "a"" from reading as "a").
    ("string", r'"[^"&]*(?:""[^"&]*)*"(?!")' + r"|'[^'&]*(?:''[^'&]*)*'(?!')"),
    ("quote", r"[\"']"),
    ("eof", r"\Z"),
)
