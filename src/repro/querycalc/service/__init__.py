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
from .plans import QueryPlan, normalize_query
from .results import BatchItem, ResultCache
from .service import SERVICE_MODES, QueryService, percentile

__all__ = [
    "BatchItem",
    "Deadline",
    "ERROR_KINDS",
    "SERVICE_MODES",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "QueryError",
    "QueryOverloadError",
    "QueryPlan",
    "QueryService",
    "RemoteQueryError",
    "ResultCache",
    "classify_error",
    "normalize_query",
    "percentile",
]
