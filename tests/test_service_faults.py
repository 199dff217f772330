"""Chaos suite: fault injection against the serving layer.

The scenarios here are the acceptance criteria of the robustness layer:

* a poisoned minority of a batch must not take down the majority
  (per-query error isolation), and metrics must record *every* query —
  the pre-robustness ``run_batch`` lost both;
* a stalled query must be cut off within a small multiple of its
  wall-clock budget, surfacing as a structured ``timeout`` error;
* an internal failure of the primary engine backend (the algebra) must
  degrade to the treewalk reference backend instead of failing the
  request;
* injected compile faults must not be negatively cached.

All faults are injected through the same hooks the CLI's
``--inject-faults`` uses, with seeded RNGs, so every scenario is
deterministic.
"""

import time

import pytest

from repro.awb import load_metamodel
from repro.awb.model import Model
from repro.querycalc import (
    FaultConfig,
    FaultInjector,
    QueryService,
    parse_query_xml,
    run_query,
)
from repro.querycalc.service import ERROR_KINDS, QueryError, classify_error
from repro.querycalc.service.faults import InjectedFault
from repro.xquery.errors import (
    XQueryDynamicError,
    XQueryStaticError,
    XQueryTimeoutError,
)

N_QUERIES = 64


def make_model(count=N_QUERIES):
    """A model with *count* distinctly-labelled applications.

    Labels are fixed-width and ``x``-terminated (``app07x``) so no label
    is a substring of another — poisoning by plan-key fragment then hits
    exactly one query.
    """
    model = Model(load_metamodel("it-architecture"))
    apps = [
        model.create_node("Application", label=f"app{i:02d}x")
        for i in range(count)
    ]
    servers = [model.create_node("Server", label=f"srv{i}") for i in range(4)]
    for index, app in enumerate(apps):
        model.connect(app, "runs-on", servers[index % 4])
    return model


def label_query(index):
    return parse_query_xml(
        '<query><start type="Application"/>'
        f'<filter-property name="label" op="contains" value="app{index:02d}x"/>'
        "<collect/></query>"
    )


def ids(nodes):
    return [node.id for node in nodes]


@pytest.fixture()
def model():
    return make_model()


class TestBatchIsolation:
    """ISSUE satellite #1 and the tentpole's headline scenario."""

    POISONED = {
        3: "compile",
        11: "compile",
        20: "dynamic",
        33: "dynamic",
        41: "internal",
        47: "internal",
        55: "timeout",
        60: "timeout",
    }

    def test_poisoned_minority_does_not_take_down_the_batch(self, model):
        injector = FaultInjector()
        for index, kind in self.POISONED.items():
            injector.poison(f"app{index:02d}x", kind=kind)
        service = QueryService(model, fault_injector=injector)
        queries = [label_query(index) for index in range(N_QUERIES)]

        items = service.run_batch(queries, timeout=0.25)

        assert len(items) == N_QUERIES
        ok = [index for index, item in enumerate(items) if item.ok]
        failed = {index: items[index].error for index in range(N_QUERIES)
                  if not items[index].ok}
        assert len(ok) == N_QUERIES - len(self.POISONED)
        assert set(failed) == set(self.POISONED)
        # the survivors' answers are exactly what the native interpreter says
        for index in ok:
            assert ids(items[index]) == ids(run_query(queries[index], model))
        # each failure is structured, with the right kind and a plan key
        for index, error in failed.items():
            assert isinstance(error, QueryError)
            assert error.kind == self.POISONED[index]
            assert error.plan_key is not None
            assert f"app{index:02d}x" in error.plan_key
        # timeouts carry the spec code
        assert failed[55].code == "XQDY_TIMEOUT"
        # metrics recorded the whole batch, failures included
        metrics = service.metrics()
        assert metrics["queries"] == N_QUERIES
        assert metrics["errors"] == len(self.POISONED)
        assert metrics["timeouts"] == 2
        assert metrics["errors_by_kind"] == {
            "compile": 2, "dynamic": 2, "internal": 2, "timeout": 2,
        }

    def test_duplicate_queries_share_their_failure(self, model):
        injector = FaultInjector()
        injector.poison("app05x", kind="dynamic")
        service = QueryService(model, fault_injector=injector)
        queries = [label_query(5), label_query(1), label_query(5)]
        items = service.run_batch(queries)
        assert not items[0].ok and not items[2].ok
        assert items[1].ok
        assert items[0].error.kind == "dynamic"
        assert service.metrics()["errors"] == 2  # both duplicates counted

    def test_batch_deadline_fails_remaining_queries_fast(self, model):
        service = QueryService(model)
        queries = [label_query(index) for index in range(6)]
        started = time.monotonic()
        items = service.run_batch(queries, batch_timeout=1e-9)
        assert time.monotonic() - started < 1.0
        assert all(not item.ok for item in items)
        assert all(item.error.kind == "timeout" for item in items)


class TestStalls:
    def test_stalled_query_is_cut_off_within_twice_its_budget(self, model):
        budget = 0.15
        injector = FaultInjector()
        injector.poison("app02x", kind="timeout")
        service = QueryService(model, fault_injector=injector)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            service.run(label_query(2), timeout=budget)
        elapsed = time.monotonic() - started
        assert elapsed < 2 * budget
        error_metrics = service.metrics()
        assert error_metrics["timeouts"] == 1
        assert error_metrics["errors_by_kind"] == {"timeout": 1}

    def test_probabilistic_stall_respects_deadline(self, model):
        config = FaultConfig(eval_stall_rate=1.0, stall_seconds=30.0, seed=1)
        service = QueryService(model, fault_injector=FaultInjector(config))
        budget = 0.1
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            service.run(label_query(0), timeout=budget)
        assert time.monotonic() - started < 2 * budget

    def test_short_stall_without_deadline_completes(self, model):
        config = FaultConfig(eval_stall_rate=1.0, stall_seconds=0.01, seed=1)
        service = QueryService(model, fault_injector=FaultInjector(config))
        item = service.run(label_query(0))
        assert item.ok


class TestDegradation:
    def test_algebra_fault_degrades_to_treewalk(self, model):
        # the algebra backend is the service's default primary
        config = FaultConfig(eval_failure_rate=1.0, eval_backends={"algebra"})
        service = QueryService(model, fault_injector=FaultInjector(config))
        query = label_query(4)
        item = service.run(query)
        assert item.ok is True
        assert ids(item) == ids(run_query(query, model))
        assert service.metrics()["fallbacks"] >= 1
        assert service.metrics()["errors"] == 0

    def test_fault_on_both_backends_surfaces_the_original_error(self, model):
        injector = FaultInjector()
        injector.poison("app04x", kind="internal")  # poisons fire on any backend
        service = QueryService(model, fault_injector=injector)
        with pytest.raises(InjectedFault):
            service.run(label_query(4))
        metrics = service.metrics()
        assert metrics["fallbacks"] == 1  # the retry happened
        assert metrics["errors_by_kind"] == {"internal": 1}

    def test_spec_errors_do_not_trigger_degradation(self, model):
        injector = FaultInjector()
        injector.poison("app04x", kind="dynamic")
        service = QueryService(model, fault_injector=injector)
        with pytest.raises(XQueryDynamicError):
            service.run(label_query(4))
        assert service.metrics()["fallbacks"] == 0


class TestCompileAndExportFaults:
    def test_compile_fault_is_isolated_and_not_negatively_cached(self, model):
        injector = FaultInjector()
        injector.poison("app06x", kind="compile")
        service = QueryService(model, fault_injector=injector)
        items = service.run_batch([label_query(6), label_query(7)])
        assert not items[0].ok and items[0].error.kind == "compile"
        assert items[1].ok
        # lift the poison: the failed plan was never cached, so it recovers
        injector.clear_poisons()
        items = service.run_batch([label_query(6), label_query(7)])
        assert items[0].ok and items[1].ok

    def test_compile_fault_raises_from_run_but_is_recorded(self, model):
        injector = FaultInjector()
        injector.poison("app06x", kind="compile")
        service = QueryService(model, fault_injector=injector)
        with pytest.raises(XQueryStaticError):
            service.run(label_query(6))
        metrics = service.metrics()
        assert metrics["queries"] == 1
        assert metrics["errors_by_kind"] == {"compile": 1}

    def test_export_fault_fails_the_batch_structurally(self, model):
        config = FaultConfig(export_failure_rate=1.0)
        service = QueryService(model, fault_injector=FaultInjector(config))
        items = service.run_batch([label_query(0), label_query(1)])
        assert all(not item.ok for item in items)
        assert all(item.error.kind == "internal" for item in items)
        # each item's error names its own plan, not a shared batch-level key
        assert len({item.error.plan_key for item in items}) == 2
        assert service.metrics()["errors"] == 2


class TestSeededChaos:
    def test_every_query_is_accounted_for(self, model):
        config = FaultConfig(
            compile_failure_rate=0.1,
            eval_failure_rate=0.25,
            eval_failure_kind="dynamic",
            seed=7,
        )
        service = QueryService(model, fault_injector=FaultInjector(config))
        queries = [label_query(index) for index in range(40)]
        items = service.run_batch(queries, timeout=0.5)
        assert len(items) == 40
        ok = sum(1 for item in items if item.ok)
        failed = sum(1 for item in items if not item.ok)
        assert ok + failed == 40
        metrics = service.metrics()
        assert metrics["queries"] == 40
        assert metrics["errors"] == failed
        for item in items:
            if not item.ok:
                assert item.error.kind in ERROR_KINDS

    def test_seed_makes_chaos_reproducible(self, model):
        def outcome_vector(seed):
            config = FaultConfig(eval_failure_rate=0.3, seed=seed)
            service = QueryService(model, fault_injector=FaultInjector(config))
            items = service.run_batch(
                [label_query(index) for index in range(20)], workers=1
            )
            return [item.ok for item in items]

        assert outcome_vector(21) == outcome_vector(21)


class TestTraceReplay:
    """Result-cache hits must replay fn:trace output, not eat it (E8)."""

    TRACED = (
        '<query trace="probe"><start type="Application"/>'
        '<filter-property name="label" op="contains" value="app01x"/>'
        "<collect/></query>"
    )

    def test_cold_run_emits_traces(self, model):
        service = QueryService(model)
        item = service.run(parse_query_xml(self.TRACED))
        assert item.served_from_cache is False
        assert len(item.traces) == 1
        assert item.traces[0].startswith("probe")

    def test_cached_serve_replays_the_same_traces(self, model):
        service = QueryService(model)
        cold = service.run(parse_query_xml(self.TRACED))
        warm = service.run(parse_query_xml(self.TRACED))
        assert warm.served_from_cache is True
        assert warm.traces == cold.traces
        assert ids(warm) == ids(cold)

    def test_mutation_forces_fresh_traces(self, model):
        service = QueryService(model)
        service.run(parse_query_xml(self.TRACED))
        model.create_node("Application", label="app99x")
        fresh = service.run(parse_query_xml(self.TRACED))
        assert fresh.served_from_cache is False
        assert len(fresh.traces) == 1

    def test_traced_and_untraced_queries_are_distinct_plans(self, model):
        service = QueryService(model)
        untraced = parse_query_xml(self.TRACED.replace(' trace="probe"', ""))
        traced = service.run(parse_query_xml(self.TRACED))
        plain = service.run(untraced)
        assert ids(traced) == ids(plain)
        assert plain.traces == ()
        assert plain.served_from_cache is False  # different plan, not a hit


class TestTaxonomy:
    def test_classify_timeout(self):
        error = classify_error(XQueryTimeoutError("too slow"), plan_key="k")
        assert error.kind == "timeout"
        assert error.code == "XQDY_TIMEOUT"
        assert error.plan_key == "k"

    def test_classify_static_and_lint(self):
        assert classify_error(XQueryStaticError("boom")).kind == "compile"
        assert (
            classify_error(XQueryStaticError("lint: XQL001 unused")).kind == "lint"
        )

    def test_classify_dynamic(self):
        error = classify_error(XQueryDynamicError("div by zero", code="FOAR0001"))
        assert error.kind == "dynamic"
        assert error.code == "FOAR0001"

    def test_classify_unknown_is_internal(self):
        error = classify_error(RuntimeError("wat"))
        assert error.kind == "internal"
        assert error.exception == "RuntimeError"

    def test_injected_kind_attribute_wins(self):
        error = classify_error(InjectedFault("evaluate", "k"))
        assert error.kind == "internal"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            QueryError(kind="catastrophic", message="no such kind")

    def test_str_is_readable(self):
        error = QueryError(kind="timeout", message="over budget", code="XQDY_TIMEOUT")
        assert str(error) == "timeout: [XQDY_TIMEOUT] over budget"


class TestFaultConfigParsing:
    def test_parse_full_spec(self):
        config = FaultConfig.parse(
            "compile=0.1,export=0.2,eval=0.3,stall=0.4,stall-ms=40,kind=dynamic,seed=9"
        )
        assert config.compile_failure_rate == 0.1
        assert config.export_failure_rate == 0.2
        assert config.eval_failure_rate == 0.3
        assert config.eval_stall_rate == 0.4
        assert config.stall_seconds == pytest.approx(0.04)
        assert config.eval_failure_kind == "dynamic"
        assert config.seed == 9

    def test_parse_empty_spec_is_all_defaults(self):
        assert FaultConfig.parse("") == FaultConfig()

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            FaultConfig.parse("explode=1.0")

    def test_parse_rejects_bare_key(self):
        with pytest.raises(ValueError):
            FaultConfig.parse("eval")

    def test_injector_counts_what_it_injected(self, model):
        injector = FaultInjector()
        injector.poison("app03x", kind="dynamic")
        service = QueryService(model, fault_injector=injector)
        service.run_batch([label_query(3), label_query(4)])
        assert injector.stats() == {"evaluate:dynamic": 1}
