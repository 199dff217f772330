"""What the serving tiers cache: plans and answers, never programs.

* **no compiled program behind** — a shard worker compiles each served
  plan (a calculus plan or a search request program) for its run and drops
  it, so after the bench warm set the engine compile LRU of the front end
  and of every worker is empty, in both modes, and every answer still
  matches its reference.
* **thread mode stays in-process** — a thread-mode ``QueryService`` loads
  neither :mod:`multiprocessing` nor ``repro.serving.pool``.
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


THREAD_MODE_PROGRAM = """
import sys
from repro.querycalc import QueryService, parse_query_xml
from repro.workloads import make_it_model

service = QueryService(make_it_model(scale=4), mode="thread")
nodes = service.run(parse_query_xml('<query><start type="User"/><collect/></query>'))
assert nodes, "the query found no users"
loaded = sorted(
    name for name in ("multiprocessing", "repro.serving.pool") if name in sys.modules
)
print(",".join(loaded))
"""


def test_thread_mode_service_does_not_load_the_process_tier():
    """In a fresh interpreter (pytest itself may have loaded the modules)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", THREAD_MODE_PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
