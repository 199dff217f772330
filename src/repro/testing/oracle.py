"""Differential oracles: run one program everywhere, compare everything.

Two oracle families:

* the **XQuery pair** — a generated program is compiled once per
  :class:`~repro.xquery.context.EngineConfig` and run under both engine
  backends (the treewalk reference and the algebra, whose fallback is the
  closure compiler); serialized results, ``fn:trace`` output, and error
  (class, code, message) triples must match exactly.
* the **calculus fleet** — a generated calculus query runs under the
  native graph interpreter, the via-XQuery backend on both engine
  backends, and the :class:`~repro.querycalc.service.QueryService` cold
  and warm (the warm hit must replay the cold result *and* its traces
  from the result cache); everything must produce the same ordered node
  ids, and failures must agree in kind.

Divergences that are deliberate, period-accurate quirks are not failures:
the :data:`ALLOWLIST` names each one with the paper section that licenses
it, and the corpus replay test asserts the allowlisted reason matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..awb.model import Model
from ..querycalc.ast import FilterProperty, Query
from ..querycalc.native import run_query
from ..querycalc.via_xquery import XQueryCalculusBackend
from ..xquery import EngineConfig, TraceLog, XQueryEngine
from ..xquery.api import BACKENDS, serialize_result
from ..xquery.errors import XQueryError

#: engine names the calculus oracle reports.  ``sharded-cold``/``-warm``
#: join the fleet when the oracle is built with ``serving=True``.
CALCULUS_ENGINES = (
    "native",
    "via-treewalk",
    "via-algebra",
    "service-cold",
    "service-warm",
    "sharded-cold",
    "sharded-warm",
)

#: the spec code the engines raise at a wall-clock deadline; a timeout in
#: any backend makes the comparison meaningless (the other backend may
#: simply have been faster), so those programs are skipped, not failed.
TIMEOUT_CODE = "XQDY_TIMEOUT"


@dataclass
class Divergence:
    """One observed disagreement between implementations."""

    kind: str  # "xquery-pair" | "metamorphic" | "calculus" | "type-soundness"
    source: str  # program text / normalized query text
    outcomes: Dict[str, tuple]
    detail: str = ""
    #: name of the ALLOWLIST rule that licenses this divergence, if any.
    allowlisted: Optional[str] = None
    #: set by the campaign when --shrink reduced the reproducer.
    shrunk_source: Optional[str] = None

    def describe(self) -> str:
        lines = [f"[{self.kind}] {self.detail}".rstrip()]
        for engine, outcome in sorted(self.outcomes.items()):
            lines.append(f"  {engine:14s} {outcome!r}")
        lines.append("  source:")
        body = self.shrunk_source or self.source
        lines.extend("    " + line for line in body.splitlines())
        return "\n".join(lines)


@dataclass
class AllowRule:
    """A licensed divergence: a predicate plus its paper citation."""

    name: str
    reason: str
    citation: str
    applies: Callable[[Divergence], bool] = field(repr=False, default=lambda d: False)


def _is_html_property_divergence(divergence: Divergence) -> bool:
    return divergence.kind == "calculus" and "html-property" in divergence.detail


def _is_declared_type_store_divergence(divergence: Divergence) -> bool:
    return divergence.kind == "calculus" and "declared-type-store" in divergence.detail


#: Divergences that are the paper's own quirks, not bugs.  Each entry
#: documents *why* the implementations legitimately disagree and where
#: the paper licenses it.
ALLOWLIST: List[AllowRule] = [
    AllowRule(
        name="html-property-filter",
        reason=(
            "Filters/sorts over html-typed properties compare different "
            "values by design: the native backend sees the stored markup "
            "string, the XQuery backend sees the export's element content "
            "(string-value strips tags)."
        ),
        citation=(
            "Paper §2 'nice, clean XML format': html properties export as "
            "child elements 'for embarrassing historical reasons' — the "
            "schema drift between the live model and its export."
        ),
        applies=_is_html_property_divergence,
    ),
    AllowRule(
        name="declared-type-store",
        reason=(
            "Storing a non-numeric string into a property the metamodel "
            "declares numeric makes the export carry type='integer' for a "
            "value that is not one; the XQuery backend then compares NaN "
            "(never true) while the native backend falls back to string "
            "comparison on the stored value."
        ),
        citation=(
            "Paper §2: metamodel conformance is advisory — 'suggestive, "
            "not punitive' — so ill-typed property values are allowed to "
            "exist, and the two query implementations see them through "
            "different lenses."
        ),
        applies=_is_declared_type_store_divergence,
    ),
]


def apply_allowlist(divergence: Optional[Divergence]) -> Optional[Divergence]:
    """Tag a divergence with the rule that licenses it, if any."""
    if divergence is None:
        return None
    for rule in ALLOWLIST:
        if rule.applies(divergence):
            divergence.allowlisted = rule.name
            break
    return divergence


# -- the XQuery pair oracle ----------------------------------------------------


def run_outcome(query, backend: str, **run_kwargs) -> tuple:
    """Run one compiled query on one backend, to a comparable value.

    ``("ok", serialized_result, trace_messages)`` on success, else
    ``("error", class_name, code, bare_message)``.  This is the single
    comparison currency every differential test in the repo uses
    (``tests/test_backend_parity.py`` imports it from here).
    """
    trace = TraceLog()
    try:
        result = query.run(backend=backend, trace=trace, **run_kwargs)
    except XQueryError as error:
        return ("error", type(error).__name__, error.code, error.bare_message)
    except Exception as error:  # noqa: BLE001 - a raw escape IS the finding
        # an exception that is not an XQueryError escaped the engine: that
        # is a bug regardless of what the other backend does (this caught
        # fn:max leaking a raw ValueError on non-numeric untyped values).
        return ("crash", type(error).__name__, str(error))
    return ("ok", serialize_result(result), tuple(trace.messages))


def xquery_outcomes(
    source: str,
    config: Optional[EngineConfig] = None,
    run_kwargs: Optional[dict] = None,
    timeout: Optional[float] = None,
) -> Dict[str, tuple]:
    """Outcomes of one source under every engine backend.

    A compile-time error is backend-independent by construction (both
    backends share the parser/optimizer), so it becomes the outcome of
    every backend.
    """
    engine = XQueryEngine(config or EngineConfig())
    run_kwargs = dict(run_kwargs or {})
    if timeout is not None:
        run_kwargs.setdefault("timeout", timeout)
    try:
        query = engine.compile(source)
    except XQueryError as error:
        outcome = ("error", type(error).__name__, error.code, error.bare_message)
        return {backend: outcome for backend in BACKENDS}
    return {backend: run_outcome(query, backend, **run_kwargs) for backend in BACKENDS}


def has_timeout(outcomes: Dict[str, tuple]) -> bool:
    return any(
        outcome[0] == "error" and outcome[2] == TIMEOUT_CODE
        for outcome in outcomes.values()
    )


def divergence_from(
    source: str, outcomes: Dict[str, tuple], kind: str, detail: str = ""
) -> Optional[Divergence]:
    """A Divergence if the outcome map disagrees anywhere (timeouts skip).

    A ``crash`` outcome — a non-XQueryError escaping the engine — is a
    divergence even when every backend crashes identically.
    """
    if has_timeout(outcomes):
        return None
    crashed = any(outcome[0] == "crash" for outcome in outcomes.values())
    distinct = {repr(outcome) for outcome in outcomes.values()}
    if len(distinct) <= 1 and not crashed:
        return None
    if crashed:
        detail = (detail + " engine-crash").strip()
    return apply_allowlist(Divergence(kind, source, outcomes, detail=detail))


def compare_xquery(
    source: str,
    config: Optional[EngineConfig] = None,
    run_kwargs: Optional[dict] = None,
    timeout: Optional[float] = None,
) -> Optional[Divergence]:
    """The pair oracle: treewalk and algebra must agree on everything."""
    outcomes = xquery_outcomes(source, config, run_kwargs, timeout=timeout)
    return divergence_from(source, outcomes, "xquery-pair")


def compare_sources(
    left: str,
    right: str,
    config: Optional[EngineConfig] = None,
    detail: str = "",
    timeout: Optional[float] = None,
) -> Optional[Divergence]:
    """The metamorphic oracle: two renderings of one meaning must agree.

    Both renderings run under both backends, so one call checks the
    rewrite *and* pair parity of each rendering.
    """
    outcomes: Dict[str, tuple] = {}
    for label, source in (("left", left), ("right", right)):
        for backend, outcome in xquery_outcomes(
            source, config, timeout=timeout
        ).items():
            outcomes[f"{label}-{backend}"] = outcome
    combined = f"(: original :)\n{left}\n(: rewritten :)\n{right}"
    return divergence_from(combined, outcomes, "metamorphic", detail=detail)


# -- the type-soundness oracle -------------------------------------------------


def type_soundness_divergence(
    source: str,
    config: Optional[EngineConfig] = None,
    timeout: Optional[float] = None,
) -> Optional[Divergence]:
    """The type-soundness oracle: runtime values must inhabit static types.

    The static analyzer (:mod:`repro.xquery.analysis.types`) infers an
    item type and occurrence for the module body.  This oracle runs the
    program on the reference backend and asserts the observed sequence
    inhabits that inference — a counterexample is an analyzer *soundness*
    bug, the class of defect no amount of backend-pair testing can see
    (both backends agree; the static claim about them is what's wrong).

    Inference runs schema-free (``schema=None``): generated programs
    construct arbitrary trees, so only the document-independent part of
    the inference is a universal claim.  Programs that fail to compile,
    raise dynamic errors, or time out carry no value to check and are
    skipped, not failed.
    """
    from dataclasses import replace

    from ..xquery.analysis.types import check_sequence, infer_body_type

    config = replace(config or EngineConfig(), type_check_calls=True)
    engine = XQueryEngine(config)
    try:
        query = engine.compile(source)
    except XQueryError:
        return None  # statically rejected: nothing was claimed about it
    try:
        inferred = infer_body_type(query.module)
    except Exception as error:  # noqa: BLE001 - an analyzer crash IS the finding
        return apply_allowlist(
            Divergence(
                "type-soundness",
                source,
                {"analyzer": ("crash", type(error).__name__, str(error))},
                detail="analyzer-crash",
            )
        )
    if inferred is None:
        return None
    run_kwargs = {"timeout": timeout} if timeout is not None else {}
    try:
        result = query.run(backend="treewalk", **run_kwargs)
    except XQueryError:
        return None  # dynamic errors (incl. timeouts) produce no value
    except Exception:  # noqa: BLE001 - raw escapes are the pair oracle's job
        return None
    violation = check_sequence(inferred, list(result))
    if violation is None:
        return None
    return apply_allowlist(
        Divergence(
            "type-soundness",
            source,
            {
                "static": ("inferred", inferred.describe()),
                "runtime": ("observed", serialize_result(result)),
            },
            detail=violation,
        )
    )


# -- the calculus fleet oracle -------------------------------------------------


class ServingOracle:
    """The process-tier member of the calculus fleet.

    Wraps a ``mode="process"`` :class:`QueryService` — real worker
    processes, key routing, admission control — and reports outcomes in
    the fleet's comparison currency.  Worker failures travel as
    :class:`~repro.querycalc.service.errors.RemoteQueryError` carriers, so
    outcomes name the *original* exception class (via ``classify_error``):
    a worker raising ``XQueryDynamicError`` must compare equal to the
    thread service raising it directly.  Nothing is allowlisted for this
    oracle — a process-tier divergence is always a bug.
    """

    def __init__(self, model: Model, workers: int = 2):
        from ..querycalc.service import QueryService

        self.service = QueryService(model, mode="process", workers=workers)

    def outcome(self, query: Query) -> tuple:
        from ..querycalc.service.errors import classify_error

        try:
            item = self.service.run(query)
        except Exception as error:
            return ("error", classify_error(error).exception)
        return (
            "ok",
            tuple(node.id for node in item),
            tuple(item.traces),
            item.served_from_cache,
        )

    def close(self) -> None:
        self.service.close()


class CalculusOracle:
    """Runs calculus queries under every implementation over one model.

    The backends and the service are built once and reused: their caches
    are part of what is being tested (a result served from the warm cache
    must be indistinguishable — ids *and* replayed traces — from the cold
    execution that populated it).

    ``serving=True`` adds the process-pool service to the fleet
    (``sharded-cold``/``sharded-warm`` outcomes, via :class:`ServingOracle`).
    Worker processes are real OS
    processes — call :meth:`close` (or use the oracle as a context
    manager) when done.
    """

    def __init__(
        self,
        model: Model,
        serving: bool = False,
        serving_workers: int = 2,
    ):
        self.model = model
        self.via = {
            backend: XQueryCalculusBackend(
                model, engine=XQueryEngine(EngineConfig(backend=backend))
            )
            for backend in BACKENDS
        }
        from ..querycalc.service import QueryService

        self.service = QueryService(model)
        self.serving: Optional[ServingOracle] = (
            ServingOracle(model, workers=serving_workers)
            if serving
            else None
        )

    def close(self) -> None:
        """Reap the process-pool service's worker processes, if any."""
        if self.serving is not None:
            self.serving.close()

    def __enter__(self) -> "CalculusOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def outcomes(self, query: Query) -> Dict[str, tuple]:
        outcomes: Dict[str, tuple] = {"native": self._native(query)}
        for backend, via in self.via.items():
            outcomes[f"via-{backend}"] = self._via(via, query)
        cold, warm = self._service(query)
        outcomes["service-cold"] = cold
        outcomes["service-warm"] = warm
        if self.serving is not None:
            outcomes["sharded-cold"] = self.serving.outcome(query)
            outcomes["sharded-warm"] = self.serving.outcome(query)
        return outcomes

    def compare(self, query: Query) -> Optional[Divergence]:
        from ..querycalc.service.plans import normalize_query

        outcomes = self.outcomes(query)
        # ids must agree everywhere; traces must agree cold-vs-warm (the
        # replay guarantee) — other engines do not collect traces.
        ids = {name: outcome[1] if outcome[0] == "ok" else outcome for name, outcome in outcomes.items()}
        statuses = {name: outcome[0] for name, outcome in outcomes.items()}
        detail = self._detail(query)
        if len(set(map(repr, ids.values()))) > 1 or len(set(statuses.values())) > 1:
            return apply_allowlist(
                Divergence("calculus", normalize_query(query), outcomes, detail=detail)
            )
        pairs = [("service-cold", "service-warm")]
        if "sharded-cold" in outcomes:
            pairs.append(("sharded-cold", "sharded-warm"))
        for cold_name, warm_name in pairs:
            cold, warm = outcomes[cold_name], outcomes[warm_name]
            if cold[0] == "ok" and (cold[2] != warm[2] or not warm[3]):
                return apply_allowlist(
                    Divergence(
                        "calculus",
                        normalize_query(query),
                        outcomes,
                        detail=(detail + f" {cold_name.split('-')[0]}-replay: warm "
                                "hit did not replay the cold result/traces").strip(),
                    )
                )
        if "sharded-cold" in outcomes:
            svc, shd = outcomes["service-cold"], outcomes["sharded-cold"]
            if svc[0] == "ok" and shd[0] == "ok" and svc[2] != shd[2]:
                # the ids matched, but fn:trace output differed — the
                # worker's trace log did not reach the reply intact.
                return apply_allowlist(
                    Divergence(
                        "calculus",
                        normalize_query(query),
                        outcomes,
                        detail=(detail + " sharded-traces: process tier's trace "
                                "output differs from the thread service").strip(),
                    )
                )
        return None

    def _detail(self, query: Query) -> str:
        """Flags the oracle needs for allowlisting decisions."""
        flags = []
        html_names = {"description", "biography"}
        for step in query.steps:
            if isinstance(step, FilterProperty) and step.name in html_names:
                flags.append("html-property")
        if query.collect.sort_by in html_names:
            flags.append("html-property")
        return " ".join(sorted(set(flags)))

    def _native(self, query: Query) -> tuple:
        try:
            nodes = run_query(query, self.model)
        except Exception as error:
            return ("error", type(error).__name__)
        return ("ok", tuple(node.id for node in nodes))

    def _via(self, via: XQueryCalculusBackend, query: Query) -> tuple:
        try:
            nodes = via.run(query)
        except Exception as error:
            return ("error", type(error).__name__)
        return ("ok", tuple(node.id for node in nodes))

    def _service(self, query: Query) -> Tuple[tuple, tuple]:
        cold = self._service_once(query)
        warm = self._service_once(query)
        return cold, warm

    def _service_once(self, query: Query) -> tuple:
        try:
            item = self.service.run(query)
        except Exception as error:
            return ("error", type(error).__name__)
        return (
            "ok",
            tuple(node.id for node in item),
            tuple(item.traces),
            item.served_from_cache,
        )


# -- the collection / full-text oracle -----------------------------------------


class CollectionOracle:
    """Differential oracle for ``fn:doc``/``fn:collection``/``ft:*`` programs.

    One program runs under every engine backend **twice** — once with the
    store's inverted index answering ``ft:search`` and once with the index
    disabled (brute-force document scan) — four outcomes that must agree
    byte-for-byte.  Nothing here is ever allowlisted: the allowlist's
    rules all match kind ``"calculus"``, and a collection divergence
    (indexed vs scan, or backend vs backend) is always a bug.

    ``serving=True`` adds the request-level facet: a
    :class:`~repro.collections.SearchRequest` is answered by the direct
    engine (indexed and scan), a one-worker :class:`SearchService` cold and
    warm (the warm hit must replay the cold text from the generation-keyed
    cache), and a thread-tier service with ``shards`` workers, each over a
    whole-store replica, whose answers must be byte-identical to the
    one-worker answer.  The one-worker service fronts ``store`` itself and
    the other a replica of it, so every write must go through
    :meth:`put_text` / :meth:`delete` to reach both.
    """

    def __init__(
        self,
        store,
        config: Optional[EngineConfig] = None,
        timeout: Optional[float] = None,
        serving: bool = False,
        shards: int = 2,
    ):
        self.store = store
        self.config = config or EngineConfig()
        self.engine = XQueryEngine(self.config)
        self.timeout = timeout
        self.services: List[object] = []
        if serving:
            from ..collections import SearchService

            self.single = SearchService(store, shards=1, mode="thread")
            self.replicated = SearchService(store.replica(), shards=shards, mode="thread")
            self.services = [self.single, self.replicated]

    def put_text(self, uri: str, text: str) -> None:
        """Write one document through every service (or the bare store)."""
        for service in self.services:
            service.put_text(uri, text)
        if not self.services:
            self.store.put_text(uri, text)

    def delete(self, uri: str) -> None:
        for service in self.services:
            service.delete(uri)
        if not self.services:
            self.store.remove(uri)

    def close(self) -> None:
        for service in self.services:
            service.close()

    def __enter__(self) -> "CollectionOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def outcomes(self, source: str) -> Dict[str, tuple]:
        run_kwargs: dict = {"collections": self.store}
        if self.timeout is not None:
            run_kwargs["timeout"] = self.timeout
        try:
            query = self.engine.compile(source)
        except XQueryError as error:
            outcome = ("error", type(error).__name__, error.code, error.bare_message)
            return {
                f"{backend}-{mode}": outcome
                for backend in BACKENDS
                for mode in ("indexed", "scan")
            }
        outcomes: Dict[str, tuple] = {}
        was_indexed = self.store.use_index
        try:
            for mode, use_index in (("indexed", True), ("scan", False)):
                self.store.use_index = use_index
                for backend in BACKENDS:
                    outcomes[f"{backend}-{mode}"] = run_outcome(
                        query, backend, **run_kwargs
                    )
        finally:
            self.store.use_index = was_indexed
        return outcomes

    def compare(self, source: str) -> Optional[Divergence]:
        return divergence_from(source, self.outcomes(source), "collection")

    def request_outcomes(self, request) -> Dict[str, tuple]:
        """The request-level facet's comparison map (needs ``serving``)."""
        outcomes: Dict[str, tuple] = {
            "direct-indexed": self._direct(request, use_index=True),
            "direct-scan": self._direct(request, use_index=False),
        }
        for name, service in (("service", self.single), ("replicated", self.replicated)):
            outcomes[f"{name}-cold"] = self._service(service, request)
            outcomes[f"{name}-warm"] = self._service(service, request)
        return outcomes

    def compare_request(self, request) -> Optional[Divergence]:
        outcomes = self.request_outcomes(request)
        texts = {
            name: outcome[1] if outcome[0] == "ok" else outcome
            for name, outcome in outcomes.items()
        }
        if len({repr(text) for text in texts.values()}) > 1:
            return Divergence(
                "collection", request.source(), outcomes, detail="request-facet"
            )
        cold, warm = outcomes["service-cold"], outcomes["service-warm"]
        if cold[0] == "ok" and warm[0] == "ok" and not warm[2]:
            return Divergence(
                "collection",
                request.source(),
                outcomes,
                detail="request-facet: warm hit missed the generation-keyed cache",
            )
        return None

    def _direct(self, request, use_index: bool) -> tuple:
        try:
            text = self.single.evaluate_fresh(request, use_index=use_index)
        except Exception as error:  # noqa: BLE001 - classified below
            return ("error", type(error).__name__)
        return ("ok", text)

    @staticmethod
    def _service(service, request) -> tuple:
        try:
            result = service.run(request)
        except Exception as error:  # noqa: BLE001 - classified below
            return ("error", type(error).__name__)
        return ("ok", result.text, result.cached)


# -- the update / view-maintenance oracle --------------------------------------


class UpdateOracle:
    """Differential oracle for the update language's view maintenance.

    One long-lived :class:`QueryService` takes random update-language
    scripts through :meth:`~repro.querycalc.service.QueryService.apply_update`
    — so its warm result-cache entries are carried, patched, and
    selectively invalidated by footprint/dependency reasoning — while the
    native interpreter re-evaluates every panel query from scratch over
    the same live model.  After every script, the maintained service and
    the fresh evaluation must agree on every panel query's ordered ids;
    a disagreement means a cache entry survived (or was patched) when the
    update actually changed its answer — precisely the bug class
    invalidate-everything never had and incremental maintenance risks.
    """

    def __init__(self, model: Model, seed: int = 0):
        import random as _random

        from ..querycalc.service import QueryService

        self.model = model
        self.rng = _random.Random(seed)
        self.service = QueryService(model)
        #: resolved script texts, in application order (the repro trail).
        self.scripts: List[str] = []

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "UpdateOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def panel(self) -> List[Query]:
        """Queries spanning the propagation outcomes: patchable scans,
        follow pipelines, property filters, id starts, descending sorts."""
        from ..querycalc.ast import (
            Collect,
            FilterProperty,
            FilterType,
            Follow,
            Query as Q,
            Start,
        )

        queries = [
            Q(start=Start(type="User"), steps=[], collect=Collect()),
            Q(
                start=Start(type="Person"),
                steps=[],
                collect=Collect(sort_by="rank", descending=True),
            ),
            Q(start=Start(all_nodes=True), steps=[], collect=Collect()),
            Q(
                start=Start(type="Person"),
                steps=[Follow(relation="likes", include_subrelations=True)],
                collect=Collect(),
            ),
            Q(
                start=Start(type="Server"),
                steps=[FilterType(type="Server")],
                collect=Collect(),
            ),
            Q(
                start=Start(type="Element"),
                steps=[FilterProperty(name="rank", op="ge", value="10")],
                collect=Collect(),
            ),
        ]
        node_ids = list(self.model.nodes)
        if node_ids:
            queries.append(
                Q(
                    start=Start(node_id=self.rng.choice(node_ids)),
                    steps=[],
                    collect=Collect(),
                )
            )
        return queries

    def warm(self) -> None:
        """Prime the service's result cache with the whole panel."""
        for query in self.panel():
            try:
                self.service.run(query)
            except Exception:
                pass  # id-start queries may dangle after deletes; fine

    def step(self) -> Optional[Divergence]:
        """Apply one random script, then compare maintained vs fresh."""
        from .models import random_update_script

        self.warm()
        script = random_update_script(self.rng, self.model)
        summary = self.service.apply_update(script)
        self.scripts.append(summary["script"])
        return self.check()

    def check(self) -> Optional[Divergence]:
        """Compare every panel query: maintained service vs native."""
        from ..querycalc.service.plans import normalize_query

        for query in self.panel():
            outcomes = {
                "maintained": self._service_outcome(query),
                "fresh": self._native_outcome(query),
            }
            if self._ids(outcomes["maintained"]) != self._ids(outcomes["fresh"]):
                return Divergence(
                    "update-maintenance",
                    "\n".join(self.scripts[-3:])
                    + "\n(: panel query :)\n"
                    + normalize_query(query),
                    outcomes,
                    detail="maintained cache disagrees with fresh evaluation",
                )
        return None

    @staticmethod
    def _ids(outcome: tuple):
        return outcome[1] if outcome[0] == "ok" else outcome

    def _service_outcome(self, query: Query) -> tuple:
        try:
            item = self.service.run(query)
        except Exception as error:
            return ("error", type(error).__name__)
        return ("ok", tuple(node.id for node in item), item.served_from_cache)

    def _native_outcome(self, query: Query) -> tuple:
        try:
            nodes = run_query(query, self.model)
        except Exception as error:
            return ("error", type(error).__name__)
        return ("ok", tuple(node.id for node in nodes))


def assert_calculus_parity(query: Query, model: Model, oracle: Optional[CalculusOracle] = None):
    """Assert every calculus implementation agrees; returns the outcomes.

    ``tests/test_backend_parity.py`` uses this for its end-to-end rows, so
    the hand-written corpus and the fuzzer share one comparison.
    """
    oracle = oracle or CalculusOracle(model)
    divergence = oracle.compare(query)
    assert divergence is None or divergence.allowlisted, (
        divergence and divergence.describe()
    )
    return oracle.outcomes(query)
