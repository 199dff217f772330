"""The XQuery lexer.

Reproduces the syntactic quirks the paper catalogues:

* names may contain ``-`` and ``.``, so ``$n-1`` is a variable with a
  three-character name, not a subtraction;
* ``/`` is a path step, not division (division is the *name* ``div``);
* bare names are NameTests (``x`` means "children named x"), never
  variables — variables need ``$``;
* ``(: ... :)`` comments nest.

Scanning is one compiled master pattern built from
:data:`~repro.xquery.tokens.TOKEN_TABLE`: it skips whitespace, matches at
the cursor, and the table row that matched (``lastgroup``) is the token's
kind.  Comments are skipped with ``str.find``.

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
from .tokens import QNAME, TOKEN_TABLE, Token

#: the master pattern: whitespace, then the first TOKEN_TABLE row that
#: matches, captured in a group named for the row.
_match = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in TOKEN_TABLE)
    + ")"
).match
_SPACE = re.compile(r"[ \t\r\n]*")
_QNAME = re.compile(QNAME)

#: the name of a character reference, ``&#65;`` or ``&#x41;``, without ``&;``;
#: a reference with more significant digits than any code point does not match.
_CHAR_REF_RE = re.compile(r"#(?:0*([0-9]{1,7})|[xX]0*([0-9a-fA-F]{1,6}))")

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

#: builds a Token without the Python-level ``__new__`` a NamedTuple call runs.
_new_token = tuple.__new__


class Lexer:
    """Tokenizes XQuery source text with explicit cursor control."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        #: the last token peeked and the cursor offsets before and after it.
        #: A token depends only on where scanning starts, so the memo holds
        #: whenever the cursor comes back to that offset.
        self._ahead: Optional[Token] = None
        self._ahead_pos = -1
        self._ahead_end = 0
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
        pos = self.pos
        if pos == self._ahead_pos:
            self.pos = self._ahead_end
            return self._ahead
        text = self.text
        match = _match(text, pos)
        if match is None:
            start = _SPACE.match(text, pos).end()
            raise self.error(f"unexpected character {text[start]!r}", start)
        kind = match.lastgroup
        if kind == "comment":
            self.pos = self._skip_comments(match.start(kind))
            return self.next_token()
        start, end = match.span(kind)
        if kind == "name" or kind == "symbol":
            value = text[start:end]
        elif kind == "var":
            value = text[start + 1 : end]
        elif kind == "string":
            quote = text[start]
            value = text[start + 1 : end - 1].replace(quote + quote, quote)
        elif kind == "quote":
            kind = "string"
            value = self._string(start)
            end = self.pos
        elif kind == "dollar":
            raise self.error("expected a variable name after '$'", start)
        else:  # a number, or eof
            value = text[start:end]
        self.pos = end
        starts = self._line_starts
        line = bisect_right(starts, start)
        return _new_token(Token, (kind, value, start, line, start - starts[line - 1] + 1))

    def peek_token(self) -> Token:
        """The next token, leaving the cursor where it is."""
        pos = self.pos
        if pos != self._ahead_pos:
            self._ahead = self.next_token()
            self._ahead_pos = pos
            self._ahead_end = self.pos
            self.pos = pos
        return self._ahead

    def _skip_comments(self, start: int) -> int:
        """The offset past the comment that opens at *start* and the
        whitespace and comments after it."""
        text = self.text
        find = text.find
        while True:
            depth = 1
            pos = start + 2
            while depth:
                close = find(":)", pos)
                if close < 0:
                    raise self.error("unterminated comment (: ... :)", start)
                # a "(:" that starts before the ":)" opens first, even "(:)".
                opening = find("(:", pos, close + 1)
                if opening >= 0:
                    depth += 1
                    pos = opening + 2
                else:
                    depth -= 1
                    pos = close + 2
            start = _SPACE.match(text, pos).end()
            if not text.startswith("(:", start):
                return start

    def _string(self, start: int) -> str:
        """Scan a string literal with entity references; leaves the cursor
        after its closing quote."""
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
                return "".join(parts)
            if char == "&":
                parts.append(self.scan_entity())
                continue
            parts.append(char)
            self.pos += 1
        raise self.error("unterminated string literal", start)

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
        self.pos = _SPACE.match(self.text, self.pos).end()

    def scan_xml_name(self) -> str:
        match = _QNAME.match(self.text, self.pos)
        if match is None:
            raise self.error("expected an XML name")
        self.pos = match.end()
        return match.group()

    def scan_entity(self) -> str:
        """Decode the entity or character reference at the cursor; an error
        points at its ``&``."""
        text = self.text
        start = self.pos
        end = text.find(";", start + 1)
        if end < 0:
            raise self.error("unterminated entity reference", start)
        name = text[start + 1 : end]
        self.pos = end + 1
        if name.startswith("#"):
            reference = _CHAR_REF_RE.fullmatch(name)
            code = -1
            if reference is not None:
                digits, hexdigits = reference.groups()
                code = int(digits) if digits else int(hexdigits, 16)
            if not 0 <= code <= sys.maxunicode:
                raise self.error(f"invalid character reference &{name};", start)
            return chr(code)
        if name in _ENTITIES:
            return _ENTITIES[name]
        raise self.error(f"unknown entity &{name};", start)
