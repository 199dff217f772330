"""Serving layer for the query calculus: caches, batching, fault tolerance.

See :mod:`repro.querycalc.service.service` for the architecture story,
:mod:`repro.querycalc.service.errors` for the failure taxonomy, and
:mod:`repro.querycalc.service.faults` for the chaos-testing harness.
"""

from .errors import (
    ERROR_KINDS,
    Deadline,
    QueryError,
    QueryOverloadError,
    RemoteQueryError,
    classify_error,
)
from .faults import FaultConfig, FaultInjector, InjectedFault
from .plans import normalize_query
from .results import BatchItem, ResultCache
from .service import QueryService

__all__ = [
    "BatchItem",
    "Deadline",
    "ERROR_KINDS",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "QueryError",
    "QueryOverloadError",
    "QueryService",
    "RemoteQueryError",
    "ResultCache",
    "classify_error",
    "normalize_query",
]
