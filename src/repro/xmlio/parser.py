"""A from-scratch XML 1.0 parser: one scanning loop over compiled patterns.

The reproduction builds its own XML layer rather than leaning on a library:
the paper's engine works on first-class attribute nodes, document order, and
node identity, which we control end to end.

:func:`parse_document` walks the text once.  Text runs are found with
``str.find``; each piece of markup is matched by a compiled pattern — a
start tag's name, each of its attributes and its close, an end tag — or
located by ``str.find`` (comments, CDATA sections, processing
instructions, a DOCTYPE).  XDM nodes are built as the loop goes, so no
token stream sits between the text and the tree.  Malformed input raises
:class:`XmlSyntaxError` carrying the offset, line and column of the fault.
"""

from __future__ import annotations

import re

from ..xdm import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
)

__all__ = ["XmlSyntaxError", "decode_entities", "parse_document", "parse_element"]


class XmlSyntaxError(ValueError):
    """Malformed XML input."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_SPACE = r"[ \t\r\n]*"

_NAME_RE = re.compile(_NAME)
_SPACE_RE = re.compile(_SPACE)
#: ``<name`` opening a start tag.
_START_TAG = re.compile(rf"<({_NAME})")
#: what follows a start tag's name: one ``name="value"`` (or single-quoted)
#: attribute, groups 1-3, or the ``>`` / ``/>`` closing the tag, group 4.
_ATTRIBUTE_OR_CLOSE = re.compile(
    rf"{_SPACE}(?:({_NAME}){_SPACE}={_SPACE}(?:\"([^\"]*)\"|'([^']*)')|(/?)>)"
)
_END_TAG = re.compile(rf"</({_NAME}){_SPACE}>")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")

CHAR_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}


def _fail(source, message: str, position: int) -> None:
    """Raise :class:`XmlSyntaxError` at *position* of *source*."""
    if source is None:
        raise XmlSyntaxError(message, position, 0, 0)
    line = source.count("\n", 0, position) + 1
    column = position - (source.rfind("\n", 0, position) + 1) + 1
    raise XmlSyntaxError(message, position, line, column)


def decode_entities(text: str, source: str = None, position: int = 0) -> str:
    """Replace XML character/entity references in *text*.

    *text* sits at *position* of the document *source*; an error is
    reported there (without a line when *source* is None).
    """
    if "&" not in text:
        return text
    out = []
    index = 0
    while index < len(text):
        char = text[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = text.find(";", index + 1)
        if end < 0:
            _fail(source, "unterminated entity reference", position + index)
        name = text[index + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in CHAR_ENTITIES:
            out.append(CHAR_ENTITIES[name])
        else:
            _fail(source, f"unknown entity &{name};", position + index)
        index = end + 1
    return "".join(out)


def parse_document(text: str, keep_whitespace_text: bool = False) -> DocumentNode:
    """Parse an XML document string into a :class:`DocumentNode`.

    Whitespace-only text between elements is dropped by default (it is
    formatting, not data, for the AWB export and template formats); pass
    ``keep_whitespace_text=True`` to preserve it.
    """
    # Nodes are linked by filling their child and attribute lists directly:
    # an element's lazy name indexes are not built until after the parse.
    document = DocumentNode()
    stack = []
    parent = document
    children = document.children
    find = text.find
    size = len(text)
    pos = 0
    while pos < size:
        if text[pos] != "<":
            stop = find("<", pos)
            if stop < 0:
                stop = size
            raw = text[pos:stop]
            if "&" in raw:
                raw = decode_entities(raw, text, pos)
            if keep_whitespace_text or raw.strip():
                node = TextNode(raw)
                node.parent = parent
                children.append(node)
            pos = stop
            continue
        following = text[pos + 1 : pos + 2]
        if following == "/":
            match = _END_TAG.match(text, pos)
            if match is None:
                _end_tag_error(text, pos)
            name = match.group(1)
            if not stack:
                _fail(text, f"closing tag </{name}> with no open element", pos)
            element = stack.pop()
            if element.name != name:
                _fail(text, f"mismatched tag: <{element.name}> closed by </{name}>", pos)
            parent = stack[-1] if stack else document
            children = parent.children
            pos = match.end()
            continue
        if following == "!" and text.startswith("<!--", pos):
            stop = find("-->", pos + 4)
            if stop < 0:
                _fail(text, "unterminated comment", pos)
            node = CommentNode(text[pos + 4 : stop])
            pos = stop + 3
        elif following == "!" and text.startswith("<![CDATA[", pos):
            stop = find("]]>", pos + 9)
            if stop < 0:
                _fail(text, "unterminated CDATA section", pos)
            node = TextNode(text[pos + 9 : stop])
            pos = stop + 3
        elif following == "?":
            stop = find("?>", pos + 2)
            if stop < 0:
                _fail(text, "unterminated processing instruction", pos)
            target, _, rest = text[pos + 2 : stop].partition(" ")
            pos = stop + 2
            if target.lower() == "xml":  # drop the XML declaration
                continue
            node = ProcessingInstructionNode(target, rest.strip())
        elif following == "!" and text.startswith("<!DOCTYPE", pos):
            pos = _skip_doctype(text, pos)
            continue
        else:
            match = _START_TAG.match(text, pos)
            if match is None:
                _fail(text, "expected a name", pos + 1)
            node = ElementNode(match.group(1))
            pos = match.end()
            seen = set()
            while True:
                match = _ATTRIBUTE_OR_CLOSE.match(text, pos)
                if match is None:
                    _start_tag_error(text, pos)
                pos = match.end()
                name = match.group(1)
                if name is None:
                    break
                value = match.group(2)
                if value is None:
                    value = match.group(3)
                if "&" in value:
                    value = decode_entities(value, text, match.start(1))
                if name in seen:
                    _fail(text, f"duplicate attribute {name!r}", match.start(1))
                seen.add(name)
                attribute = AttributeNode(name, value)
                attribute.parent = node
                node.attributes.append(attribute)
            node.parent = parent
            children.append(node)
            if not match.group(4):
                stack.append(node)
                parent = node
                children = node.children
            continue
        node.parent = parent
        children.append(node)
    if stack:
        _fail(text, f"unclosed element <{stack[-1].name}>", size)
    if document.document_element() is None:
        _fail(text, "document has no element", 0)
    return document


def parse_element(text: str, keep_whitespace_text: bool = False) -> ElementNode:
    """Parse an XML fragment with a single root element."""
    # parse_document has already raised if the text holds no element
    return parse_document(text, keep_whitespace_text).document_element()


def _skip_doctype(text: str, pos: int) -> int:
    """The offset after the DOCTYPE at *pos*, internal subset included."""
    depth = 0
    for mark in _DOCTYPE_MARK.finditer(text, pos):
        char = mark.group()
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif depth <= 0:
            return mark.end()
    _fail(text, "unterminated DOCTYPE", pos)


def _start_tag_error(text: str, pos: int) -> None:
    """Raise the error for a start tag whose next attribute or close does
    not match at *pos*."""
    pos = _SPACE_RE.match(text, pos).end()
    if pos >= len(text):
        _fail(text, "unterminated start tag", pos)
    start = pos
    name = _NAME_RE.match(text, pos)
    if name is None:
        _fail(text, "expected a name", pos)
    pos = _SPACE_RE.match(text, name.end()).end()
    if not text.startswith("=", pos):
        _fail(text, "expected '='", pos)
    pos = _SPACE_RE.match(text, pos + 1).end()
    if pos < len(text) and text[pos] in "\"'":
        _fail(text, "unterminated attribute value", start)
    _fail(text, "expected quoted attribute value", start)


def _end_tag_error(text: str, pos: int) -> None:
    """Raise the error for an end tag at *pos* that does not match."""
    name = _NAME_RE.match(text, pos + 2)
    if name is None:
        _fail(text, "expected a name", pos + 2)
    _fail(text, "expected '>'", _SPACE_RE.match(text, name.end()).end())
