"""Each parity gate fails on an injected wrong answer and names the operation."""

import itertools
import json
import random

from bench import runner
from bench.metrics import LISTED
from bench.workloads import WORKLOADS


def _first_ops(workload, count):
    return [(index, op) for index, op in zip(range(1, count + 1), workload.ops())]


def test_docgen_gate_flags_a_document_that_differs_from_native():
    workload = WORKLOADS["docgen"](seed=3, smoke=True)
    generator = workload.setup(None)
    records = [
        (index, op, workload.execute(generator, op))
        for index, op in _first_ops(workload, 3)
    ]
    assert workload.check(generator, records) == []
    index, op, text = records[1]
    records[1] = (index, op, text.replace("</", "<!-- injected --></", 1))
    assert workload.check(generator, records) == [
        f"op 2 ({op.key}): output differs from NativeDocumentGenerator"
    ]


def test_calc_cold_gate_flags_ids_that_differ_from_native():
    from types import SimpleNamespace

    from repro.querycalc.native import run_query

    workload = WORKLOADS["calc_cold"](seed=4, smoke=True)
    system = SimpleNamespace(model=workload.inputs())
    answers = {
        index: (op, tuple(node.id for node in run_query(op.payload, system.model)))
        for index, op in _first_ops(workload, 40)
    }
    records = [(index, op, hash(ids)) for index, (op, ids) in answers.items()]
    assert workload.check(system, records) == []
    index = next(index for index, (_, ids) in answers.items() if len(ids) > 1)
    op, ids = answers[index]
    records[index - 1] = (index, op, hash(ids[::-1]))
    assert workload.check(system, records) == [
        f"op {index} ({op.key}): ids differ from native run_query"
    ]


def test_search_rw_gate_flags_an_answer_that_differs_from_index_off(monkeypatch):
    from repro.collections import SearchService

    workload = WORKLOADS["search_rw"](seed=5, smoke=True)
    system = workload.setup(None)
    try:
        assert workload.check(system, []) == []
        fresh = SearchService.evaluate_fresh
        poisoned = workload.sweep[3].key()

        def evaluate_fresh(self, request, use_index=None):
            text = fresh(self, request, use_index)
            return text + "<injected/>" if request.key() == poisoned else text

        monkeypatch.setattr(SearchService, "evaluate_fresh", evaluate_fresh)
        assert workload.check(system, []) == [
            "sweep request 3: differs from index-off evaluation"
        ]
    finally:
        workload.close(system)


def test_a_wrong_answer_makes_the_run_exit_non_zero(monkeypatch, capsys):
    from repro.querycalc import QueryService
    from repro.querycalc.service.results import BatchItem

    served = QueryService.run
    rng = random.Random(0)

    def run(self, query, timeout=None):
        item = served(self, query, timeout)
        # drop one answer row now and then: a service bug the gate must see
        return BatchItem(list(item)[1:]) if len(item) > 1 and rng.random() < 0.5 else item

    monkeypatch.setattr(QueryService, "run", run)
    assert runner.run("calc_rw", seed=6, seconds=0.3, trace=False, smoke=True) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any("MISMATCH: " in line and "ids differ from native" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert set(result["metrics"]) == set(LISTED)


def test_a_raising_op_makes_the_run_exit_non_zero(monkeypatch, capsys):
    # the gates see only the answers of ops that returned; a failed op must
    # fail the run by itself, with every answer that did return right
    workload = WORKLOADS["calc_rw"]
    served = workload.execute
    fresh = itertools.count()

    def execute(self, system, op):
        if op.key.startswith("fresh") and next(fresh) % 3 == 0:
            raise RuntimeError("injected failure")
        return served(self, system, op)

    monkeypatch.setattr(workload, "execute", execute)
    assert runner.run("calc_rw", seed=7, seconds=0.3, trace=False, smoke=True) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any("ERROR: " in line and "injected failure" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
