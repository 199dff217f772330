"""From-scratch XML 1.0 reading and writing over XDM trees."""

from .parser import XmlSyntaxError, decode_entities, parse_document, parse_element
from .serializer import escape_attribute, escape_text, serialize

__all__ = [
    "XmlSyntaxError",
    "decode_entities",
    "escape_attribute",
    "escape_text",
    "parse_document",
    "parse_element",
    "serialize",
]
