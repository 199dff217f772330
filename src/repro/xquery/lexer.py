"""The XQuery lexer.

Reproduces the syntactic quirks the paper catalogues:

* names may contain ``-`` and ``.``, so ``$n-1`` is a variable with a
  three-character name, not a subtraction;
* ``/`` is a path step, not division (division is the *name* ``div``);
* bare names are NameTests (``x`` means "children named x"), never
  variables — variables need ``$``;
* ``(: ... :)`` comments nest.

The lexer is pull-based.  Direct element constructors are *not* lexed here:
the parser detects ``<`` in expression position and switches to raw
character scanning (XML mode) using the cursor-control methods at the
bottom of the class, because XQuery's grammar is context sensitive at
exactly that point.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from typing import List, Optional

from .errors import XQueryStaticError
from .tokens import MULTI_SYMBOLS, SINGLE_SYMBOLS, Token

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_DIGITS = set("0123456789")

#: one NCName run — the paper's quirk characters ``-`` and ``.`` included;
#: a compiled regex scans the run in C instead of a per-character loop.
_NCNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")

#: the name of a character reference, ``&#65;`` or ``&#x41;``, without ``&;``;
#: a reference with more significant digits than any code point does not match.
_CHAR_REF_RE = re.compile(r"#(?:0*([0-9]{1,7})|[xX]0*([0-9a-fA-F]{1,6}))")

#: multi-character symbols grouped by first character (longest first within
#: a group), so scanning tries only the handful that can possibly match.
_MULTI_BY_FIRST: dict = {}
for _symbol in MULTI_SYMBOLS:
    _MULTI_BY_FIRST.setdefault(_symbol[0], []).append(_symbol)


class Lexer:
    """Tokenizes XQuery source text with explicit cursor control."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # offsets where each line starts: location() is a bisect instead of
        # an O(pos) newline count per token (which made lexing quadratic).
        starts: List[int] = [0]
        find = text.find
        at = find("\n")
        while at >= 0:
            starts.append(at + 1)
            at = find("\n", at + 1)
        self._line_starts = starts

    # -- error reporting ----------------------------------------------------

    def location(self, pos: Optional[int] = None) -> tuple:
        pos = self.pos if pos is None else pos
        line = bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    def error(self, message: str, pos: Optional[int] = None) -> XQueryStaticError:
        line, column = self.location(pos)
        return XQueryStaticError(message, line=line, column=column)

    # -- main tokenizer -----------------------------------------------------

    def next_token(self) -> Token:
        """Scan and return the next token (``eof`` at end of input)."""
        self._skip_space_and_comments()
        text = self.text
        if self.pos >= len(text):
            return self._token("eof", "")
        start = self.pos
        char = text[start]

        if char == "$":
            return self._variable(start)
        if char in _NAME_START:
            return self._name_or_qname(start)
        if char in _DIGITS or (
            char == "." and start + 1 < len(text) and text[start + 1] in _DIGITS
        ):
            return self._number(start)
        if char in "\"'":
            return self._string(start)
        for symbol in _MULTI_BY_FIRST.get(char, ()):
            if text.startswith(symbol, start):
                self.pos = start + len(symbol)
                return self._token("symbol", symbol, start)
        if char in SINGLE_SYMBOLS or char == ":":
            self.pos = start + 1
            return self._token("symbol", char, start)
        raise self.error(f"unexpected character {char!r}", start)

    def _token(self, kind: str, value: str, start: Optional[int] = None) -> Token:
        start = self.pos if start is None else start
        starts = self._line_starts
        line = bisect_right(starts, start)
        return Token(kind, value, start, line, start - starts[line - 1] + 1)

    def _skip_space_and_comments(self) -> None:
        text = self.text
        size = len(text)
        pos = self.pos
        while True:
            while pos < size and text[pos] in " \t\r\n":
                pos += 1
            if pos < size and text[pos] == "(" and text.startswith("(:", pos):
                self.pos = pos
                self._skip_comment()
                pos = self.pos
            else:
                break
        self.pos = pos

    def _skip_comment(self) -> None:
        start = self.pos
        depth = 0
        text = self.text
        while self.pos < len(text):
            if text.startswith("(:", self.pos):
                depth += 1
                self.pos += 2
            elif text.startswith(":)", self.pos):
                depth -= 1
                self.pos += 2
                if depth == 0:
                    return
            else:
                self.pos += 1
        raise self.error("unterminated comment (: ... :)", start)

    def _variable(self, start: int) -> Token:
        # The infamous quirk: "-" continues the name, so $n-1 is one variable.
        self.pos = start + 1
        if self.pos >= len(self.text) or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a variable name after '$'", start)
        name = self._scan_name()
        return self._token("var", name, start)

    def _name_or_qname(self, start: int) -> Token:
        name = self._scan_name()
        return self._token("name", name, start)

    def _scan_name(self) -> str:
        """Scan an NCName or a QName (one optional colon)."""
        text = self.text
        start = self.pos
        match = _NCNAME_RE.match(text, start)
        if match is not None:
            self.pos = match.end()
        # one prefix:local colon, but not "::" (axis) and not ":=".
        if (
            self.pos < len(text)
            and text[self.pos] == ":"
            and self.pos + 1 < len(text)
            and text[self.pos + 1] in _NAME_START
            and not text.startswith("::", self.pos)
        ):
            match = _NCNAME_RE.match(text, self.pos + 1)
            self.pos = match.end()
        name = text[start : self.pos]
        # names may not end with "." or "-" followed by nothing meaningful;
        # XML allows trailing ones, keep as scanned.
        return name

    def _number(self, start: int) -> Token:
        text = self.text
        self.pos = start
        while self.pos < len(text) and text[self.pos] in _DIGITS:
            self.pos += 1
        kind = "integer"
        if self.pos < len(text) and text[self.pos] == ".":
            # ".." is the parent step, not a decimal point.
            if not text.startswith("..", self.pos):
                kind = "decimal"
                self.pos += 1
                while self.pos < len(text) and text[self.pos] in _DIGITS:
                    self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            lookahead = self.pos + 1
            if lookahead < len(text) and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < len(text) and text[lookahead] in _DIGITS:
                kind = "double"
                self.pos = lookahead
                while self.pos < len(text) and text[self.pos] in _DIGITS:
                    self.pos += 1
        return self._token(kind, text[start : self.pos], start)

    def _string(self, start: int) -> Token:
        text = self.text
        quote = text[start]
        self.pos = start + 1
        parts = []
        while self.pos < len(text):
            char = text[self.pos]
            if char == quote:
                if text.startswith(quote * 2, self.pos):
                    parts.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return self._token("string", "".join(parts), start)
            if char == "&":
                parts.append(self._entity())
                continue
            parts.append(char)
            self.pos += 1
        raise self.error("unterminated string literal", start)

    def _entity(self) -> str:
        text = self.text
        start = self.pos
        end = text.find(";", start + 1)
        if end < 0:
            raise self.error("unterminated entity reference")
        name = text[start + 1 : end]
        self.pos = end + 1
        entities = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
        if name.startswith("#"):
            reference = _CHAR_REF_RE.fullmatch(name)
            code = -1
            if reference is not None:
                digits, hexdigits = reference.groups()
                code = int(digits) if digits else int(hexdigits, 16)
            if not 0 <= code <= sys.maxunicode:
                raise self.error(f"invalid character reference &{name};", start)
            return chr(code)
        if name in entities:
            return entities[name]
        raise self.error(f"unknown entity &{name};")

    # -- raw XML-mode scanning (for direct constructors) --------------------
    #
    # The parser drives these directly; they read from self.pos.

    def at(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def take(self, literal: str) -> None:
        if not self.at(literal):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def peek_char(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_char(self) -> str:
        char = self.peek_char()
        self.pos += 1
        return char

    def skip_xml_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def scan_xml_name(self) -> str:
        if self.peek_char() not in _NAME_START:
            raise self.error("expected an XML name")
        return self._scan_name()

    def scan_entity(self) -> str:
        return self._entity()
