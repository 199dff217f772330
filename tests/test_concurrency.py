"""Concurrency stress: one engine / one service shared by many threads.

The compile LRU (lookup, insert, eviction, counters) and the algebra's
lazily built fallback compiler are the shared mutable state; these tests
hammer them from 8 threads and assert no corruption — every thread sees
correct results and the cache counters stay consistent.
"""

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.querycalc import QueryService, parse_query_xml, run_query
from repro.workloads import make_it_model
from repro.xquery import EngineConfig, XQueryEngine, algebra, serialize_result

THREADS = 8
QUERIES_PER_THREAD = 100


def _sources():
    # enough distinct sources to churn a small LRU, each with a known answer.
    return [(f"sum(1 to {n})", n * (n + 1) // 2) for n in range(1, 26)]


#: a large leaf: its compile is slow enough for a race to show.
_TERMS = ", ".join(f"$i * {n}" for n in range(300))


def _assert_first_runs_compile_once(monkeypatch, source):
    """Racing first runs of *source* build one closure compiler and
    compile each expression once; returns the last round's query and its
    compile counts."""
    built = []
    compiles = Counter()

    class CountingCompiler(algebra.Compiler):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        def compile(self, expr):
            compiles[id(expr)] += 1
            return super().compile(expr)

    monkeypatch.setattr(algebra, "Compiler", CountingCompiler)
    engine = XQueryEngine(EngineConfig(backend="algebra", compile_cache_size=0))
    expected = serialize_result(XQueryEngine().compile(source).run())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: widen the race
    try:
        for _ in range(5):
            built.clear()
            compiles.clear()
            compiled = engine.compile(source)
            barrier = threading.Barrier(THREADS)

            def first_run():
                barrier.wait(timeout=30)
                return serialize_result(compiled.run())

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(first_run) for _ in range(THREADS)]
                results = [future.result(timeout=60) for future in futures]
            assert results == [expected] * THREADS
            assert len(built) == 1
            assert compiled.algebra._compiler is built[0]
            assert set(compiles.values()) == {1}  # each node compiled once
    finally:
        sys.setswitchinterval(interval)
    return compiled, compiles


class TestEngineThreadSafety:
    def test_8_threads_x_100_queries_one_engine(self):
        # a small cache forces constant hit/miss/eviction interleaving.
        engine = XQueryEngine(EngineConfig(compile_cache_size=8))
        sources = _sources()
        failures = []
        barrier = threading.Barrier(THREADS)

        def worker(thread_index):
            barrier.wait()  # maximize interleaving
            for i in range(QUERIES_PER_THREAD):
                source, expected = sources[(thread_index + i) % len(sources)]
                result = engine.evaluate(source)
                if result != [expected]:
                    failures.append((source, result))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures
        info = engine.cache_info()
        assert info["hits"] + info["misses"] == THREADS * QUERIES_PER_THREAD
        assert 0 < info["currsize"] <= 8

    def test_concurrent_closures_build_shares_one_program(self, monkeypatch):
        # the return clause's constructor is an EvalPlan leaf: the first
        # runs race to build the closure compiler and compile the leaf.  A
        # large leaf keeps the compile slow enough for the race to show.
        source = f"for $i in 1 to 5 return <sq>{{ ({_TERMS}) }}</sq>"
        _assert_first_runs_compile_once(monkeypatch, source)

    def test_concurrent_predicate_and_call_closures_compile_once(self, monkeypatch):
        # the first runs also race on a generic predicate's closure and on
        # a user function's body, compiled at its first call: every closure
        # comes from the compiler's one memo.
        source = (
            f"declare function local:sq($n) {{ ({_TERMS.replace('$i', '$n')}) }};"
            f" for $i in (1 to 5)[. mod 2 = 1]"
            f" return <sq>{{ ({_TERMS}), local:sq($i) }}</sq>"
        )
        compiled, compiles = _assert_first_runs_compile_once(monkeypatch, source)
        module = compiled.algebra.module
        predicate = module.body.clauses[0].source.predicates[0]
        assert id(predicate) in compiles
        assert id(module.functions[0].body) in compiles

    def test_concurrent_runs_of_one_compiled_query(self):
        engine = XQueryEngine(EngineConfig(backend="algebra"))
        compiled = engine.compile("sum(for $i in $v return $i * $i)")
        results = []

        def run(n):
            value = list(range(n + 1))
            results.append(
                (n, compiled.run(variables={"v": value}), sum(i * i for i in value))
            )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for n in range(50):
                pool.submit(run, n)
        assert len(results) == 50
        assert all(result == [expected] for _, result, expected in results)


class TestServiceThreadSafety:
    def test_concurrent_service_runs_match_native(self):
        model = make_it_model(scale=6)
        service = QueryService(model)
        sources = [
            '<query><start type="User"/><collect sort-by="label"/></query>',
            '<query><start type="User"/><follow relation="likes"/><collect/></query>',
            '<query><start all="true"/><filter-type type="Program"/><collect/></query>',
            '<query><start type="Server"/><follow relation="runs"/><collect/></query>',
        ]
        queries = [parse_query_xml(source) for source in sources]
        expected = [[n.id for n in run_query(query, model)] for query in queries]
        failures = []

        def worker(thread_index):
            for i in range(25):
                index = (thread_index + i) % len(queries)
                got = [n.id for n in service.run(queries[index])]
                if got != expected[index]:
                    failures.append((index, got))

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for index in range(THREADS):
                pool.submit(worker, index)
        assert not failures
        metrics = service.metrics()
        assert metrics["queries"] == THREADS * 25
        # each distinct plan was executed at most a handful of times even
        # under racing first-misses; the rest were cache hits.
        assert metrics["executed"] <= len(queries) * THREADS
        assert metrics["hits"] >= metrics["queries"] - metrics["executed"]
