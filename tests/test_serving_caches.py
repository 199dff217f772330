"""What the serving tiers cache: plans and answers, never programs.

* **no compiled program behind** — a shard worker compiles each served
  plan (a calculus plan or a search request program) for its run and drops
  it, so after the bench warm set the engine compile LRU of the front end
  and of every worker is empty, in both modes, and every answer still
  matches its reference.
* **each entry point loads only what it runs** — in a fresh interpreter,
  docgen loads neither the analyzer nor the calculus service nor the
  serving tier; a thread-mode ``QueryService`` loads neither
  :mod:`multiprocessing` nor ``repro.serving.pool``; and every name a
  package re-exports on first use (``repro.lazy``) still resolves.
* **serving imports nothing after construction** — in both tiers and both
  modes, neither the front end nor a forked worker imports a module while
  it serves the bench warm set and a write (the fork-safety rule in
  :mod:`repro.serving.worker`).
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.querycalc import QueryService
from repro.querycalc.native import run_query


def _worker_stats(service):
    if service.mode == "process":
        return service.serving_stats()["workers"]
    return [service._worker.stats()]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_served_plans_leave_no_compiled_program_behind(mode):
    from bench.workloads import CalcRW

    workload = CalcRW(1, smoke=True)
    model = workload.inputs()
    with QueryService(model, mode=mode, workers=2) as service:
        for _ in range(2):  # cold, then warm
            for query in workload.warm:
                assert [node.id for node in service.run(query)] == [
                    node.id for node in run_query(query, model)
                ]
        assert service.cache_stats()["results"]["hits"] == len(workload.warm)
        assert service.cache_stats()["compile"]["currsize"] == 0
        workers = _worker_stats(service)
        assert sum(worker["runs"] for worker in workers) == len(workload.warm)
        for worker in workers:
            assert worker["compile_cache"]["currsize"] == 0


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_served_search_requests_leave_no_compiled_program_behind(mode):
    from bench.workloads import SearchRW
    from repro.collections import DocumentStore, SearchService

    workload = SearchRW(1, smoke=True)
    store = DocumentStore()
    for uri, text in workload.texts:
        store.put_text(uri, text)
    with SearchService(store, shards=2 if mode == "process" else 1, mode=mode) as service:
        for request in workload.warm:
            assert service.run(request).text == service.evaluate_fresh(
                request, use_index=False
            )
        workers = service.stats()["workers"]
        assert sum(worker["runs"] for worker in workers) >= len(workload.warm)
        for worker in workers:
            assert worker["compile_cache"]["currsize"] == 0


#: the checkout root, for ``bench``, and ``src``, for ``repro``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYTHONPATH = os.pathsep.join((os.path.dirname(os.path.dirname(repro.__file__)), ROOT))


def _fresh(program: str, *args: str) -> str:
    """Run ``program`` in a fresh interpreter (pytest itself may have
    loaded the modules) and return what it prints."""
    done = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


DOCGEN = """
from repro.docgen import XQueryDocumentGenerator
from repro.workloads import make_it_model, simple_list_template

XQueryDocumentGenerator(make_it_model(scale=2)).generate(simple_list_template("User"))
"""

ENGINE = """
from repro.xquery import EngineConfig, XQueryEngine

engine = XQueryEngine(EngineConfig(lint="off"))
assert engine.compile("for $x in (1, 2, 3) where $x > 1 return $x * 2").run() == [4, 6]
"""

ALGEBRA = """
from repro.xquery import EngineConfig, XQueryEngine

engine = XQueryEngine(EngineConfig(backend="algebra", lint="off"))
compiled = engine.compile(
    'for $x in (<a n="1"/>, <a n="2"/>)/self::a[@n eq "2"] return string($x/@n)'
)
assert not compiled.algebra.trivial
assert compiled.run() == ["2"]
"""

NATIVE = """
import random
from repro.querycalc import run_query
from repro.testing.models import random_calculus_query, random_model

model = random_model(7, size=40)
run_query(random_calculus_query(random.Random(7), model), model)
"""

MODELS = """
import repro.testing.models
"""

THREAD_MODE = """
from bench.workloads import CalcRW, Op

workload = CalcRW(1, smoke=True)
system = workload.setup(workload.inputs())
answers = [workload.execute(system, Op("read", "warm", query)) for query in workload.warm]
assert any(answers), "the warm set found no nodes"
assert workload.execute(system, Op("write", "write", None)), "the write applied nothing"
"""

SEARCH = """
from bench.workloads import SearchRW
from repro.collections import DocumentStore, SearchService

workload = SearchRW(1, smoke=True)
store = DocumentStore()
for uri, text in workload.texts:
    store.put_text(uri, text)
with SearchService(store, shards=2, mode="process") as service:
    for request in workload.warm:
        service.run(request)
    service.put_text("hot/w0.xml", "<doc>alpha beta gamma</doc>")
"""

#: the packages whose re-exports load on first use (``repro.lazy``).
NAMES = """
import importlib

for package in (
    "repro.querycalc",
    "repro.querycalc.service",
    "repro.testing",
    "repro.xquery",
    "repro.xquery.algebra",
    "repro.xquery.analysis",
):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    assert set(module.__all__) <= set(dir(module)), package
    star = {}
    exec(f"from {package} import *", star)
    assert set(module.__all__) <= set(star), package
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{package}.no_such_name resolved")
"""

#: appended to each program: the loaded modules that fall under a
#: forbidden prefix (``argv[1]``) and are not exempt (``argv[2]``).
REPORT = """
import sys

forbidden = [prefix for prefix in sys.argv[1].split(",") if prefix]
exempt = set(sys.argv[2].split(","))
print(",".join(sorted(
    name for name in sys.modules
    if name not in exempt
    and any(name == prefix or name.startswith(prefix + ".") for prefix in forbidden)
)))
"""

ANALYZER = "repro.xquery.analysis"
#: all a served read or write needs of the analyzer: the finding model
#: (update checks).  The export schema rides only explain's catalog.
SERVING_ANALYZER = (ANALYZER, f"{ANALYZER}.diagnostics")


@pytest.mark.parametrize(
    "program, forbidden, exempt",
    [
        pytest.param(
            DOCGEN,
            (
                ANALYZER,
                "repro.querycalc.service",
                "repro.querycalc.via_xquery",
                "repro.serving",
                "concurrent.futures",
                "logging",
                "multiprocessing",
            ),
            (),
            id="xquery-docgen",
        ),
        pytest.param(ENGINE, (ANALYZER,), (), id="engine-lint-off"),
        pytest.param(
            ALGEBRA,
            ("repro.xquery.algebra.stats", "repro.xquery.algebra.optimize", ANALYZER),
            (),
            id="engine-algebra-run",
        ),
        pytest.param(NATIVE, ("repro.xquery",), (), id="native-run-query"),
        pytest.param(
            MODELS,
            tuple(
                f"repro.testing.{name}"
                for name in ("corpus", "fuzz", "generator", "metamorphic", "oracle", "shrinker")
            ),
            (),
            id="testing-models",
        ),
        pytest.param(
            THREAD_MODE,
            ("multiprocessing", "repro.serving.pool", "concurrent.futures", ANALYZER),
            SERVING_ANALYZER,
            id="thread-mode-service",
        ),
        pytest.param(
            SEARCH,
            ("repro.querycalc.service.service", "repro.querycalc.service.deps", ANALYZER),
            SERVING_ANALYZER,
            id="search-service",
        ),
        pytest.param(NAMES, (), (), id="lazy-names"),
    ],
)
def test_entry_point_loads_only_what_it_runs(program, forbidden, exempt):
    assert _fresh(program + REPORT, ",".join(forbidden), ",".join(exempt)) == ""


#: one tier in one mode: after construction, the bench warm set and one
#: write.  A finder first on ``sys.meta_path`` logs every import the
#: parent or a forked worker makes; the log's length after construction
#: marks where serving starts.
FORK_SAFETY = """
import os
import sys
import tempfile

tier, mode = sys.argv[1:]
log = tempfile.NamedTemporaryFile(delete=False)
fd = os.open(log.name, os.O_WRONLY | os.O_APPEND)


class LogImports:
    def find_spec(self, name, path=None, target=None):
        os.write(fd, f"{os.getpid()} {name}\\n".encode())
        return None


sys.meta_path.insert(0, LogImports())
from bench.workloads import CalcRW, SearchRW, _CalcWrites
from repro.collections import DocumentStore, SearchService
from repro.querycalc import QueryService

if tier == "query":
    workload = CalcRW(1, smoke=True)
    service = QueryService(workload.inputs(), mode=mode, workers=2)
    write = lambda: service.apply_update(_CalcWrites(2, workload.base_ids).next())
else:
    workload = SearchRW(1, smoke=True)
    store = DocumentStore()
    for uri, text in workload.texts:
        store.put_text(uri, text)
    service = SearchService(store, shards=2 if mode == "process" else 1, mode=mode)
    write = lambda: service.put_text("hot/w0.xml", "<doc>alpha beta gamma</doc>")
start = os.path.getsize(log.name)
before = set(sys.modules)
for payload in workload.warm:
    service.run(payload)
write()
after = set(sys.modules)
service.close()
with open(log.name) as handle:
    handle.seek(start)
    logged = handle.read().split()
os.unlink(log.name)
print(",".join(sorted(after - before)) + "|" + ",".join(logged[1::2]))
"""


@pytest.mark.parametrize("mode", ["thread", "process"])
@pytest.mark.parametrize("tier", ["query", "search"])
def test_serving_imports_nothing_after_construction(tier, mode):
    """The fork-safety rule (``repro.serving.worker``): what a worker's
    request loop or a write reaches is imported before the pool forks."""
    assert _fresh(FORK_SAFETY, tier, mode) == "|"
