"""XQuery error conditions, with spec-style error codes.

The engine raises :class:`XQueryError` subclasses carrying the W3C error
code (``XPST0003`` and friends).  The famously unhelpful Galax message for a
missing ``$`` — ``Internal_Error: Variable '$glx:dot' not found.`` — is
reproduced *optionally* by the lexer/evaluator in "galax diagnostics" mode,
so the paper's debugging experience can be demonstrated and measured.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Optional


class XQueryError(Exception):
    """Base class for all errors raised by the XQuery engine."""

    default_code = "FOER0000"

    def __init__(
        self,
        message: str,
        code: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        self.code = code or self.default_code
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})"
        super().__init__(f"[{self.code}] {message}{location}")
        self.bare_message = message


class XQueryStaticError(XQueryError):
    """A static (parse/compile time) error.  XPST0003 is the syntax error."""

    default_code = "XPST0003"


class XQueryTypeError(XQueryError):
    """A type error (XPTY0004 and friends)."""

    default_code = "XPTY0004"


class XQueryDynamicError(XQueryError):
    """A dynamic (evaluation time) error."""

    default_code = "XPDY0002"


class XQueryTimeoutError(XQueryDynamicError):
    """The query ran past its wall-clock deadline.

    Raised cleanly from the evaluation loop (between pipeline stages, FLWOR
    tuples, and function calls) rather than by killing a worker thread, so a
    serving layer can cut off a runaway query and keep the worker.
    """

    default_code = "XQDY_TIMEOUT"

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message, code=code)


class XQueryUserError(XQueryDynamicError):
    """Raised by ``fn:error`` — the paper's only debugging tool at first.

    Carries the user's message/value so the "binary search by error()"
    workflow (experiment E8) can inspect what the probe reported.
    """

    default_code = "FOER0000"

    def __init__(self, message: str, value=None, code: Optional[str] = None):
        super().__init__(message, code=code)
        self.value = value if value is not None else []


#: Error codes used by the engine, for reference and for tests.
ERROR_CODES = {
    "XPST0003": "grammar: the query is not syntactically valid",
    "XPST0008": "undefined name (variable or type) at compile time",
    "XPST0017": "unknown function name/arity",
    "XPDY0002": "dynamic context component (e.g. context item) is absent",
    "XPTY0004": "value does not match a required type",
    "XPTY0019": "path step applied to a non-node",
    "XQTY0024": "attribute node follows non-attribute content in constructor",
    "XQDY0025": "duplicate attribute name in constructor",
    "XQST0034": "duplicate function declaration",
    "XQST0049": "duplicate variable declaration",
    "FORG0001": "invalid value for cast",
    "FORG0006": "invalid argument type (e.g. effective boolean value)",
    "FORG0005": "fn:exactly-one called on a non-singleton",
    "FOAR0001": "division by zero",
    "FOER0000": "error raised by fn:error",
    "FODC0002": "error retrieving resource (fn:doc)",
    "XQDY_TIMEOUT": "the query exceeded its wall-clock deadline",
}


@contextlib.contextmanager
def extended_stack(limit: int = 20000):
    """Temporarily raise Python's recursion limit.

    Deeply nested expressions cost a dozen Python frames per level in the
    recursive-descent parser and tree-walking evaluator; the default limit
    of 1000 would turn a legal 150-paren expression into a RecursionError.
    An explicit nesting guard in the parser bounds the real depth.
    """
    previous = sys.getrecursionlimit()
    if previous < limit:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
