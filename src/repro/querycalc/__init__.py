"""The AWB query calculus: one little language, two interpreters."""

from ..lazy import lazy_exports
from .ast import Collect, FilterProperty, FilterType, Follow, Query, Start
from .native import QueryRuntimeError, run_query
from .parser import QueryParseError, parse_query_xml

# the service and the XQuery backend load on first use: the native
# interpreter (docgen's) runs neither.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        **dict.fromkeys(
            (
                "BatchItem",
                "FaultConfig",
                "FaultInjector",
                "QueryError",
                "QueryOverloadError",
                "QueryService",
                "normalize_query",
            ),
            ".service",
        ),
        "XQueryCalculusBackend": ".via_xquery",
    },
)

__all__ = [
    "BatchItem",
    "Collect",
    "FaultConfig",
    "FaultInjector",
    "FilterProperty",
    "FilterType",
    "Follow",
    "Query",
    "QueryError",
    "QueryOverloadError",
    "QueryParseError",
    "QueryRuntimeError",
    "QueryService",
    "Start",
    "XQueryCalculusBackend",
    "normalize_query",
    "parse_query_xml",
    "run_query",
]
