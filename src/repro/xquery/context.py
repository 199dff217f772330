"""Static and dynamic evaluation contexts, and engine configuration."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..xdm import DocumentNode, Sequence
from .ast import FunctionDecl
from .errors import XQueryTimeoutError

#: Names accepted by ``EngineConfig.backend`` / ``CompiledQuery.run``.
BACKENDS = ("treewalk", "algebra")


@dataclass
class EngineConfig:
    """Tunable behaviours, several of which reproduce 2004-era Galax.

    ``duplicate_attribute_mode``
        What a constructor does when two attribute nodes share a name:
        ``"last"`` or ``"first"`` keep one (the two legal outcomes the paper
        shows), ``"keep"`` keeps both (the Galax bug the paper observed),
        ``"error"`` raises XQDY0025 (the eventual standard).
    ``galax_diagnostics``
        When True, dynamic errors lose their location information and a
        missing variable is reported as the infamous
        ``Internal_Error: Variable '$glx:dot' not found.`` — the message the
        paper quotes.  Used by the debugging experiments.
    ``optimize`` / ``trace_is_dead_code``
        Run the optimizer; and, if so, whether its dead-code pass considers
        ``fn:trace`` removable (the transient Galax optimizer bug that made
        the paper's tracing vanish).
    ``max_recursion_depth``
        Guard for runaway recursive user functions.
    ``type_check_calls``
        Check user-function arguments and results against their declared
        types (XPTY0004 on a mismatch).  False is the paper's "untyped
        mode": declared types are ignored at run time.
    ``backend``
        Which execution backend ``CompiledQuery.run`` uses by default:
        ``"treewalk"`` (the period-accurate reference interpreter) or
        ``"algebra"`` (the production path: set-at-a-time plans with index
        scans and hash joins, whose fallback for everything outside the
        plan fragment is the closure compiler; see
        :mod:`repro.xquery.algebra`).  Parity between the two is asserted
        by ``tests/test_backend_parity.py`` and the differential fuzzer.
    ``compile_cache_size``
        Maximum number of compiled queries the engine's LRU compile cache
        retains; ``0`` disables caching entirely.
    ``lint``
        Run the static analyzer (:mod:`repro.xquery.analysis`) at compile
        time, *before* the optimizer runs: ``"off"`` (default), ``"warn"``
        (emit a :class:`~repro.xquery.analysis.LintWarning` per finding of
        warning severity or worse), or ``"error"`` (raise
        :class:`~repro.xquery.errors.XQueryStaticError` on the first such
        finding).  Linting pre-optimization is what lets XQL001 warn about
        the trace the dead-code pass is about to delete.
    ``lint_schema``
        Which document schema the lint pass evaluates paths and
        predicates against: ``"awb"`` (default — the AWB export schema,
        enabling the typed rules XQL010–XQL012) or ``"off"`` (schema-free
        linting, XQL001–XQL009 only).  With ``lint="error"`` and the
        default schema, compilation rejects statically dead paths and
        ill-typed operators outright — the typed mode the paper skipped.
    """

    duplicate_attribute_mode: str = "last"
    galax_diagnostics: bool = False
    optimize: bool = True
    trace_is_dead_code: bool = False
    max_recursion_depth: int = 2000
    type_check_calls: bool = True
    backend: str = "treewalk"
    compile_cache_size: int = 128
    lint: str = "off"
    lint_schema: str = "awb"

    def __post_init__(self) -> None:
        if self.duplicate_attribute_mode not in ("last", "first", "keep", "error"):
            raise ValueError(
                "duplicate_attribute_mode must be 'last', 'first', 'keep', or "
                f"'error', not {self.duplicate_attribute_mode!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, not {self.backend!r}"
            )
        if self.lint not in ("off", "warn", "error"):
            raise ValueError(
                f"lint must be 'off', 'warn', or 'error', not {self.lint!r}"
            )
        if self.lint_schema not in ("awb", "off"):
            raise ValueError(
                f"lint_schema must be 'awb' or 'off', not {self.lint_schema!r}"
            )


class TraceLog:
    """Collects ``fn:trace`` output; optionally tees to a print function."""

    def __init__(self, echo: Optional[Callable[[str], None]] = None):
        self.messages: List[str] = []
        self._echo = echo

    def emit(self, message: str) -> None:
        self.messages.append(message)
        if self._echo is not None:
            self._echo(message)

    def clear(self) -> None:
        self.messages.clear()


class DynamicContext:
    """The dynamic context: focus, variable bindings, documents, config.

    Variable scopes are handled by *copying* the bindings dict on scope
    entry — bindings are small in practice and copying keeps semantics
    obviously correct (no accidental capture, which matters for a purely
    functional language's evaluator).
    """

    __slots__ = (
        "variables",
        "globals",
        "item",
        "position",
        "size",
        "functions",
        "documents",
        "collections",
        "config",
        "trace",
        "depth",
        "deadline",
    )

    def __init__(
        self,
        variables: Optional[Dict[str, Sequence]] = None,
        functions: Optional[Dict[Tuple[str, int], FunctionDecl]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        config: Optional[EngineConfig] = None,
        trace: Optional[TraceLog] = None,
        deadline: Optional[float] = None,
        collections=None,
    ):
        self.variables: Dict[str, Sequence] = variables if variables is not None else {}
        #: module-level (prolog-declared and external) variables; visible in
        #: every scope including user-function bodies.
        self.globals: Dict[str, Sequence] = {}
        self.item = None  # context item, or None if absent
        self.position = 0
        self.size = 0
        self.functions = functions if functions is not None else {}
        self.documents = documents if documents is not None else {}
        #: a :class:`repro.collections.DocumentStore` (or None): the
        #: uri-addressed multi-document store behind ``fn:doc``,
        #: ``fn:collection``, and the ``ft:*`` builtins.
        self.collections = collections
        self.config = config if config is not None else EngineConfig()
        self.trace = trace if trace is not None else TraceLog()
        self.depth = 0
        #: absolute ``time.monotonic()`` instant after which evaluation must
        #: stop, or None for no budget.  Checked between pipeline stages,
        #: FLWOR tuples, and user-function calls in both backends.
        self.deadline = deadline

    def check_deadline(self) -> None:
        """Raise ``XQDY_TIMEOUT`` if the wall-clock budget has been spent."""
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise XQueryTimeoutError("query exceeded its wall-clock deadline")

    def with_variables(self, new_bindings: Dict[str, Sequence]) -> "DynamicContext":
        """A child context with additional variable bindings."""
        child = self._clone()
        child.variables = dict(self.variables)
        child.variables.update(new_bindings)
        return child

    def with_focus(self, item, position: int, size: int) -> "DynamicContext":
        """A child context with a new focus (context item / position / size)."""
        child = self._clone()
        child.item = item
        child.position = position
        child.size = size
        return child

    def function_scope(self, bindings: Dict[str, Sequence]) -> "DynamicContext":
        """A context for a user-function body: parameters + globals only.

        XQuery functions do not close over the caller's local variables.
        """
        child = self._clone()
        child.variables = dict(self.globals)
        child.variables.update(bindings)
        child.item = None
        child.position = 0
        child.size = 0
        child.depth = self.depth + 1
        return child

    def _clone(self) -> "DynamicContext":
        child = DynamicContext.__new__(DynamicContext)
        child.variables = self.variables
        child.globals = self.globals
        child.item = self.item
        child.position = self.position
        child.size = self.size
        child.functions = self.functions
        child.documents = self.documents
        child.collections = self.collections
        child.config = self.config
        child.trace = self.trace
        child.depth = self.depth
        child.deadline = self.deadline
        return child
