"""GenTrouble: the exception that made the Java rewrite pleasant.

"We chose to allow nearly every function to throw our own GenTrouble
exception.  GenTrouble was an exception carrying quite a bit of data — a
string describing what the error was, plus the inputs that went into
causing the error."

The native generator raises :class:`GenTrouble` from any depth and catches
it only at the top, which is what collapses the paper's half-dozen-line
error idiom back to one line per call.
"""

from __future__ import annotations

from typing import Optional

from ..xdm import ElementNode


class GenTrouble(Exception):
    """Trouble while generating a document, with full context attached."""

    def __init__(
        self,
        message: str,
        template_element: Optional[ElementNode] = None,
        focus=None,
        severity: str = "error",
    ):
        self.bare_message = message
        self.template_element = template_element
        self.focus = focus
        self.severity = severity
        super().__init__(self.describe())

    def describe(self) -> str:
        parts = [self.bare_message]
        if self.template_element is not None:
            parts.append(f"while processing <{self.template_element.name}>")
        if self.focus is not None:
            label = getattr(self.focus, "label", None) or getattr(self.focus, "id", "?")
            parts.append(f"with focus on {label!r}")
        return ", ".join(parts)
