"""Public engine facade: compile and run XQuery programs.

Typical use::

    from repro.xquery import XQueryEngine

    engine = XQueryEngine()
    result = engine.evaluate("for $i in 1 to 3 return $i * $i")
    # result == [1, 4, 9]

    query = engine.compile(source)           # parse + optimize once
    value = query.run(context_item=doc, variables={"mode": ["draft"]})

The engine's :class:`EngineConfig` flags select between spec behaviour and
the 2004 Galax behaviours the paper describes (see
:mod:`repro.xquery.context`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields
from typing import Dict, List, Optional

from ..lru import LRU
from ..xdm import DocumentNode, Node, Sequence, is_node, sequence
from ..xmlio import serialize
from .ast import Module, function_table
from .context import BACKENDS, DynamicContext, EngineConfig, TraceLog
from .errors import XQueryStaticError, extended_stack
from .evaluator import evaluate
from .optimizer import OptimizerStats, optimize_module
from .parser import parse_query


class CompiledQuery:
    """A parsed (and optionally optimized) query, ready to run."""

    def __init__(self, module: Module, config: EngineConfig):
        self.module = module
        self.config = config
        self.functions = function_table(module)
        if len(self.functions) < len(module.functions):
            kept = {id(declaration) for declaration in self.functions.values()}
            duplicate = next(d for d in module.functions if id(d) not in kept)
            raise XQueryStaticError(
                f"duplicate declaration of function {duplicate.name}()"
                f" with arity {duplicate.arity}",
                code="XQST0034",
                line=duplicate.line,
                column=duplicate.column,
            )
        seen_variables = set()
        for variable in module.variables:
            if variable.name in seen_variables:
                raise XQueryStaticError(
                    f"duplicate declaration of variable ${variable.name}",
                    code="XQST0049",
                    line=variable.line,
                    column=variable.column,
                )
            seen_variables.add(variable.name)
        #: lint findings, populated when ``config.lint`` is not "off".
        self.diagnostics: List["Diagnostic"] = []
        if config.lint != "off":
            # lint BEFORE optimization: XQL001's whole point is to see the
            # trace binding the dead-code pass is about to delete.
            self._run_lint()
        self.optimizer_stats: Optional[OptimizerStats] = None
        if config.optimize:
            self.optimizer_stats = optimize_module(
                module, trace_is_dead_code=config.trace_is_dead_code
            )
        self._algebra: Optional["AlgebraProgram"] = None
        self._algebra_lock = threading.Lock()

    def _run_lint(self) -> None:
        import warnings

        from .analysis import LintWarning, analyze_module, severity_at_least

        self.diagnostics = analyze_module(self.module, config=self.config)
        for diagnostic in self.diagnostics:
            if not severity_at_least(diagnostic, "warning"):
                continue
            if self.config.lint == "error":
                raise XQueryStaticError(
                    f"lint: {diagnostic.code} {diagnostic.message}",
                    code=diagnostic.spec_code or diagnostic.code,
                    line=diagnostic.line or None,
                    column=diagnostic.column or None,
                )
            warnings.warn(diagnostic.render(), LintWarning, stacklevel=4)

    @property
    def algebra(self) -> "AlgebraProgram":
        """The algebraic plan for this query, built on first use.

        Lowering is deferred until the query first runs under
        ``backend="algebra"`` (a treewalk-only query never pays for it), and
        the result is shared across threads (one plan, one lock).
        """
        if self._algebra is None:
            with self._algebra_lock:
                if self._algebra is None:
                    from .algebra import AlgebraProgram

                    with extended_stack():
                        self._algebra = AlgebraProgram(
                            self.module, self.functions, self.config
                        )
        return self._algebra

    def explain(self, statistics=None) -> dict:
        """The algebraic plan as a dict (text + JSON-ready tree), with rows
        estimated against ``statistics`` (a
        :class:`~repro.xquery.algebra.StatisticsCatalog`; bland priors if
        None).  The estimates never change the plan that runs.

        Includes ``static_type``: the whole query's inferred item type and
        occurrence from the static-type pass (``None`` for a body-less
        library module).
        """
        explanation = self.algebra.explain(statistics)
        # imported here: only explain reads the static type, and it is off
        # the run path.
        from .analysis.types import infer_body_type

        inferred = infer_body_type(self.module)
        explanation["static_type"] = (
            inferred.describe() if inferred is not None else None
        )
        return explanation

    @property
    def external_variable_names(self) -> List[str]:
        return [v.name for v in self.module.variables if v.value is None]

    def run(
        self,
        context_item: Optional[Node] = None,
        variables: Optional[Dict[str, object]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        trace: Optional[TraceLog] = None,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        algebra_cache=None,
        collections=None,
    ) -> Sequence:
        """Evaluate the query body; returns a flat sequence of items.

        ``variables`` supplies external variables; plain Python values are
        coerced into sequences (a list is a sequence, a scalar a singleton).
        ``backend`` overrides the config's backend for this run only.
        ``timeout`` is a wall-clock budget in seconds (``deadline`` the
        equivalent absolute ``time.monotonic()`` instant); a run that
        exceeds it raises :class:`~repro.xquery.errors.XQueryTimeoutError`
        (``XQDY_TIMEOUT``) at the next stage boundary instead of hanging
        the calling thread.

        ``collections`` supplies a :class:`repro.collections.DocumentStore`
        backing ``fn:doc``/``fn:collection`` and the ``ft:*`` full-text
        builtins, in every backend.

        ``algebra_cache`` only affects ``backend="algebra"``: a
        :class:`~repro.lru.LRU` sharing scan/join work across queries over
        the same document.
        """
        backend = backend if backend is not None else self.config.backend
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if timeout is not None:
            budget = time.monotonic() + timeout
            deadline = budget if deadline is None else min(deadline, budget)
        ctx = DynamicContext(
            functions=self.functions,
            documents=documents or {},
            config=self.config,
            trace=trace,
            deadline=deadline,
            collections=collections,
        )
        provided = {
            name: _coerce_sequence(value) for name, value in (variables or {}).items()
        }
        program = self.algebra if backend == "algebra" else None
        with extended_stack():
            self._bind_globals(ctx, provided, program)
            if context_item is not None:
                ctx = ctx.with_focus(context_item, 1, 1)
            if program is not None:
                return program.run(ctx, shared_cache=algebra_cache)
            return evaluate(self.module.body, ctx)

    def _bind_globals(
        self,
        ctx: DynamicContext,
        provided: Dict[str, Sequence],
        program: Optional["AlgebraProgram"] = None,
    ) -> None:
        for declaration in self.module.variables:
            if declaration.value is None:
                if declaration.name not in provided:
                    raise XQueryStaticError(
                        f"external variable ${declaration.name} was not provided",
                        code="XPDY0002",
                        line=declaration.line,
                        column=declaration.column,
                    )
                value = provided[declaration.name]
            elif program is not None:
                value = program.thunk(declaration.value)(ctx)
            else:
                value = evaluate(declaration.value, ctx)
            if (
                declaration.declared_type is not None
                and not declaration.declared_type.matches(value)
            ):
                raise XQueryStaticError(
                    f"variable ${declaration.name} does not match its declared "
                    f"type {declaration.declared_type!r}",
                    code="XPTY0004",
                    line=declaration.line,
                    column=declaration.column,
                )
            ctx.globals[declaration.name] = value
            ctx.variables[declaration.name] = value
        # extra provided variables become implicit externals, a convenience
        # the Python host uses heavily.
        for name, value in provided.items():
            if name not in ctx.globals:
                ctx.globals[name] = value
                ctx.variables[name] = value


def _coerce_sequence(value: object) -> Sequence:
    # lists and tuples are both "a sequence of items" to the host API;
    # sequence() flattens either kind of nesting, and wraps a scalar.
    return sequence(value)


class XQueryEngine:
    """Compiles and evaluates XQuery programs under one configuration.

    Repeated compilations of identical source are served from a bounded
    :class:`~repro.lru.LRU` (size ``config.compile_cache_size``; ``0``
    disables it), so one engine can be shared by the query service's
    worker threads.  The cache key includes every config field, so an
    engine whose config is mutated between calls never serves a stale
    compilation.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **flags):
        if config is None:
            config = EngineConfig(**flags)
        elif flags:
            raise TypeError("pass either a config object or keyword flags, not both")
        self.config = config
        self._cache = LRU(config.compile_cache_size)

    def _cache_key(self, source: str) -> tuple:
        return (source,) + tuple(
            (f.name, getattr(self.config, f.name)) for f in fields(self.config)
        )

    def compile(self, source: str) -> CompiledQuery:
        """Parse, validate, and (per config) optimize a query."""
        # the bound follows a config mutated between calls, as the key does.
        self._cache.maxsize = self.config.compile_cache_size
        if self._cache.maxsize <= 0:
            return CompiledQuery(parse_query(source), self.config)
        return self._cache.get_or_build(
            self._cache_key(source),
            lambda: CompiledQuery(parse_query(source), self.config),
        )

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/race/size counters (:meth:`repro.lru.LRU.stats`)."""
        return self._cache.stats()

    def cache_clear(self) -> None:
        self._cache.clear()

    def evaluate(
        self,
        source: str,
        context_item: Optional[Node] = None,
        variables: Optional[Dict[str, object]] = None,
        documents: Optional[Dict[str, DocumentNode]] = None,
        trace: Optional[TraceLog] = None,
        timeout: Optional[float] = None,
        collections=None,
    ) -> Sequence:
        """One-shot compile-and-run."""
        return self.compile(source).run(
            context_item=context_item,
            variables=variables,
            documents=documents,
            trace=trace,
            timeout=timeout,
            collections=collections,
        )

    def evaluate_to_string(self, source: str, **kwargs) -> str:
        """Evaluate and serialize the result the way a CLI would print it."""
        return serialize_result(self.evaluate(source, **kwargs))


def serialize_result(result: Sequence) -> str:
    """Serialize a result sequence: nodes as XML, atomics space separated."""
    parts: List[str] = []
    previous_was_atomic = False
    for item in result:
        if is_node(item):
            parts.append(serialize(item))
            previous_was_atomic = False
        else:
            from ..xdm import string_value_of_atomic

            text = string_value_of_atomic(item)
            if previous_was_atomic:
                parts.append(" " + text)
            else:
                parts.append(text)
            previous_was_atomic = True
    return "".join(parts)
