"""E8 — debugging: the trace-eating optimizer and error() bisection.

* the 2004 Galax behaviour: a trace in a dead ``let`` silently vanishes
  under optimization, and so does one a helper function prints; the
  insinuated form survives; the fixed optimizer keeps all three, since
  its side-effect test follows user-function calls;
* the cost of the paper's only earlier workflow — binary search by
  ``error()`` probes, each costing a full program run.
"""

import pytest

from conftest import format_table, record_result
from repro.workloads import make_it_model, system_context_template
from repro.xquery import EngineConfig, TraceLog, XQueryEngine
from repro.xquery.debug import ErrorBisector, make_probe_runner

DEAD_TRACE = "let $x := 6 * 7 let $dummy := trace('x=', $x) return $x"
LIVE_TRACE = "let $x := trace('x=', 6 * 7) return $x"
HELPER_TRACE = (
    'declare function local:f() { trace("probe", 1) }; let $x := local:f() return 2'
)


def traced_run(engine, source):
    trace = TraceLog()
    value = engine.evaluate(source, trace=trace)
    return value, trace.messages


def test_e08_trace_visibility_matrix(benchmark):
    def measure():
        engines = {
            "galax 2004 (buggy dce)": XQueryEngine(
                EngineConfig(optimize=True, trace_is_dead_code=True)
            ),
            "fixed optimizer": XQueryEngine(
                EngineConfig(optimize=True, trace_is_dead_code=False)
            ),
            "no optimizer": XQueryEngine(EngineConfig(optimize=False)),
        }
        return [
            (name,)
            + tuple(
                "printed" if traced_run(engine, source)[1] else "lost"
                for source in (DEAD_TRACE, LIVE_TRACE, HELPER_TRACE)
            )
            for name, engine in engines.items()
        ]

    rows = benchmark.pedantic(measure, rounds=3, iterations=1)
    record_result(
        "e08_trace_matrix.txt",
        format_table(
            ["engine", "trace in dead let", "insinuated trace", "trace in helper"],
            rows,
        ),
    )
    matrix = {row[0]: row[1:] for row in rows}
    assert matrix["galax 2004 (buggy dce)"] == ("lost", "printed", "lost")
    assert matrix["fixed optimizer"] == ("printed", "printed", "printed")
    assert matrix["no optimizer"] == ("printed", "printed", "printed")


def make_pipeline_program(total, bug_at):
    def source_for_probe(probe_at):
        lines = ["let $x0 := 1"]
        for step in range(1, total + 1):
            if step == probe_at:
                lines.append('let $p := error("probe")')
            if step == bug_at:
                lines.append(f"let $x{step} := $x{step - 1} idiv 0")
            else:
                lines.append(f"let $x{step} := $x{step - 1} + 1")
        lines.append(f"return $x{total}")
        return "\n".join(lines)

    return source_for_probe


@pytest.mark.parametrize("total,bug_at", [(16, 11), (64, 37), (256, 201)])
def test_e08_error_bisection_cost(benchmark, total, bug_at):
    engine = XQueryEngine()
    runner = make_probe_runner(engine, make_pipeline_program(total, bug_at))

    def locate():
        return ErrorBisector(total, runner).locate()

    result = benchmark.pedantic(locate, rounds=1, iterations=1)
    assert result.failing_step == bug_at
    # each of these runs is a full edit-and-rerun cycle in the paper's
    # workflow; log2(N) of them.
    assert result.runs <= total.bit_length() + 1


def test_e08_bisection_runs_table(benchmark):
    def measure():
        rows = []
        for total, bug_at in [(16, 11), (64, 37), (256, 201)]:
            engine = XQueryEngine()
            runner = make_probe_runner(engine, make_pipeline_program(total, bug_at))
            result = ErrorBisector(total, runner).locate()
            rows.append((total, bug_at, result.failing_step, result.runs))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_result(
        "e08_bisection.txt",
        format_table(["program steps", "bug at", "found", "full runs needed"], rows),
    )
    for total, bug_at, found, runs in rows:
        assert found == bug_at


def test_e08_trace_overhead_on_real_workload(benchmark):
    """Tracing the real docgen: the flood of data the paper mentions."""
    model = make_it_model(scale=4)
    from repro.docgen import XQueryDocumentGenerator

    generator = XQueryDocumentGenerator(model)
    trace = TraceLog()

    def run():
        return generator.generate(system_context_template(), trace=trace)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.document is not None
