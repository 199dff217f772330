"""An XQuery / XPath 2.0 subset engine with 2004-era Galax behaviours.

Public entry points:

* :class:`XQueryEngine` — compile and evaluate queries.
* :class:`EngineConfig` — behaviour flags (optimizer, duplicate-attribute
  policy, Galax diagnostics, the trace-eating dead-code bug).
* :class:`TraceLog` — collects ``fn:trace`` output.
* :func:`parse_query` / :func:`parse_expression` — parsing only.
* :mod:`repro.xquery.debug` — the paper's debugging workflows.
* :mod:`repro.xquery.analysis` — the xqlint static analyzer
  (:func:`analyze_source`, :class:`Diagnostic`; CLI at
  ``python -m repro.xquery.lint``); ``EngineConfig(lint="warn"|"error")``
  runs it at compile time.
"""

from .analysis import Diagnostic, LintWarning, analyze_module, analyze_source
from .api import CompiledQuery, XQueryEngine, serialize_result
from .context import DynamicContext, EngineConfig, TraceLog
from .errors import (
    ERROR_CODES,
    XQueryDynamicError,
    XQueryError,
    XQueryStaticError,
    XQueryTimeoutError,
    XQueryTypeError,
    XQueryUserError,
)
from .functions import builtin_names
from .optimizer import OptimizerStats, optimize_module
from .parser import parse_expression, parse_query

__all__ = [
    "CompiledQuery",
    "Diagnostic",
    "DynamicContext",
    "ERROR_CODES",
    "EngineConfig",
    "LintWarning",
    "OptimizerStats",
    "TraceLog",
    "XQueryDynamicError",
    "XQueryEngine",
    "XQueryError",
    "XQueryStaticError",
    "XQueryTimeoutError",
    "XQueryTypeError",
    "XQueryUserError",
    "analyze_module",
    "analyze_source",
    "builtin_names",
    "optimize_module",
    "parse_expression",
    "parse_query",
    "serialize_result",
]
