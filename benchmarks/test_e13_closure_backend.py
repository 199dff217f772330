"""E13 — the production algebra backend vs the treewalk reference.

The paper's lopsidedness numbers (`e05`, `e06`) are measured on the
period-accurate treewalk.  The algebra backend runs what it can as
set-at-a-time plans and hands everything else to the closure compiler,
which compiles the optimized AST to nested Python closures and uses the
lazy name indexes on elements.  The docgen templates (e05) lower almost
entirely to that fallback, so their rows measure the closure compiler;
the calculus queries (e06) lower to hash-join plans.  This experiment
shows how much of the gap was interpreter overhead rather than the
language itself — and that the paper's native-vs-XQuery *ordering*
survives: even compiled, the XQuery path stays well behind the native one.

Methodology: throughput drifts by 2–3x between processes on a shared
machine, so each comparison interleaves the two backends inside one
process and takes the best of N alternations; the treewalk acts as the
in-run control.  Outputs are asserted identical before anything is timed.

The hard gates: the algebra's fallback beats the treewalk by at least
1.3x on the e05 scale=4 docgen workload, and the algebra is never
*slower* than the treewalk on any row (a CI-noise-proof 1.0x).
"""

import time

from conftest import format_table, record_json, record_result
from repro.docgen import NativeDocumentGenerator, XQueryDocumentGenerator
from repro.querycalc import XQueryCalculusBackend, parse_query_xml, run_query
from repro.workloads import make_it_model, table_template
from repro.xmlio import serialize
from repro.xquery import EngineConfig, XQueryEngine

QUERY = parse_query_xml(
    """
    <query>
      <start type="User"/>
      <follow relation="likes"/>
      <follow relation="uses" target-type="Program"/>
      <collect sort-by="label"/>
    </query>
    """
)

E05_SCALES = [4, 10]
E06_SCALES = [8, 24]
ROUNDS = 5


def _interleaved_best(tasks, rounds=ROUNDS):
    """Best-of-N wall time per task, alternating tasks within each round."""
    best = {name: float("inf") for name in tasks}
    for _ in range(rounds):
        for name, fn in tasks.items():
            started = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def _engine(backend):
    return XQueryEngine(EngineConfig(backend=backend))


def test_e13_closure_backend_speedups():
    rows = []
    guard_ratios = {}

    # e05: the docgen table workload, full five-phase generate().
    for scale in E05_SCALES:
        model = make_it_model(scale=scale)
        template = table_template("User", "Program", "uses")
        generators = {
            backend: XQueryDocumentGenerator(model, engine=_engine(backend))
            for backend in ("treewalk", "algebra")
        }
        native = NativeDocumentGenerator(model)
        outputs = {
            backend: serialize(generator.generate(template).document)
            for backend, generator in generators.items()
        }
        assert outputs["treewalk"] == outputs["algebra"]
        assert outputs["treewalk"] == serialize(native.generate(template).document)

        best = _interleaved_best(
            {
                backend: (lambda g=generator: g.generate(template))
                for backend, generator in generators.items()
            }
        )
        started = time.perf_counter()
        for _ in range(5):
            native.generate(template)
        native_seconds = (time.perf_counter() - started) / 5
        ratio = best["treewalk"] / best["algebra"]
        guard_ratios[f"e05/{scale}"] = ratio
        # the paper's ordering: native stays far ahead of both backends.
        assert native_seconds < best["algebra"]
        rows.append(
            (
                f"e05 docgen {scale}x{max(2, scale // 2)}",
                f"{best['treewalk'] * 1000:.1f}ms",
                f"{best['algebra'] * 1000:.1f}ms",
                f"{ratio:.2f}x",
                f"{native_seconds * 1000:.2f}ms",
                "same",
            )
        )

    # e06: the calculus-to-XQuery query workload.
    for scale in E06_SCALES:
        model = make_it_model(scale=scale)
        backends = {
            backend: XQueryCalculusBackend(model, engine=_engine(backend))
            for backend in ("treewalk", "algebra")
        }
        for backend in backends.values():
            backend.export  # build the XML export outside the timed region
        ids = {
            name: [n.id for n in backend.run(QUERY)]
            for name, backend in backends.items()
        }
        native_ids = [n.id for n in run_query(QUERY, model)]
        assert ids["treewalk"] == ids["algebra"] == native_ids

        best = _interleaved_best(
            {
                name: (lambda b=backend: b.run(QUERY))
                for name, backend in backends.items()
            }
        )
        started = time.perf_counter()
        for _ in range(50):
            run_query(QUERY, model)
        native_seconds = (time.perf_counter() - started) / 50
        ratio = best["treewalk"] / best["algebra"]
        guard_ratios[f"e06/{scale}"] = ratio
        assert native_seconds < best["algebra"]
        stats = model.stats()
        rows.append(
            (
                f"e06 query n={stats['nodes']}",
                f"{best['treewalk'] * 1000:.1f}ms",
                f"{best['algebra'] * 1000:.1f}ms",
                f"{ratio:.2f}x",
                f"{native_seconds * 1000:.2f}ms",
                "same",
            )
        )

    record_result(
        "e13_closure_backend.txt",
        format_table(
            ["workload", "treewalk", "algebra", "speedup", "native", "output"],
            rows,
        ),
    )
    record_json(
        "e13_closure_backend.json",
        {
            "experiment": "e13",
            "rows": [
                {
                    "workload": workload,
                    "treewalk_ms": float(treewalk.rstrip("ms")),
                    "algebra_ms": float(algebra.rstrip("ms")),
                    "speedup": float(speedup.rstrip("x")),
                    "native_ms": float(native.rstrip("ms")),
                    "output": output,
                }
                for workload, treewalk, algebra, speedup, native, output in rows
            ],
        },
    )

    # The CI gate: the algebra's closure-compiler fallback must clearly beat
    # the treewalk on the small docgen workload ...
    assert guard_ratios["e05/4"] >= 1.3, guard_ratios
    # ... and no measured workload may regress below the treewalk (a
    # generous 1.0x so machine noise cannot flake it).
    assert all(ratio >= 1.0 for ratio in guard_ratios.values()), guard_ratios
