"""E17 — generative differential conformance: fuzz the fleet, shrink, pin.

The parity suites replay programs someone thought to write; E17 measures
what the *generated* conformance campaign covers.  One fixed-seed run

* generates ≥ 500 programs across the three kinds (raw XQuery programs
  for the treewalk/algebra pair, metamorphic rewrite pairs, and calculus
  queries for the native / via-XQuery / service fleet),
* reports grammar-production coverage (how much of the subset the
  weighted grammar actually exercised),
* asserts **zero unallowlisted divergences** — the licensed quirks
  (html-property schema drift, advisory-metamodel ill-typed stores) are
  the only disagreements the fleet is allowed to have, and
* demonstrates the shrinker end to end: a trigger expression grafted deep
  into a large generated program is reduced to a ≤ 5-line reproducer by
  the structural delta-debugger.

``BENCH_e17.json`` records the campaign stats; the ``fuzz-smoke`` CI job
re-runs the campaign with ``--check`` so any new divergence fails the
build until it is fixed or licensed.
"""

import os
import random

from conftest import format_table, record_json, record_result
from repro.testing.fuzz import graft_trigger, injected_interesting, run_campaign
from repro.testing.generator import ProgramGenerator
from repro.testing.shrinker import shrink_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FULL_BUDGET = 600
SMOKE_BUDGET = 150
#: grammar productions the fixed-seed campaign must reach.
COVERAGE_FLOOR = 0.90


def _shrinker_demo(seed: int) -> dict:
    """Graft a trigger into a big generated program; shrink it back out."""
    generator = ProgramGenerator(random.Random(seed), max_fuel=18)
    program = graft_trigger(generator.program(), "7 idiv 2")
    original = program.render()
    shrunk = shrink_program(program, injected_interesting()).render()
    assert "idiv" in shrunk
    assert len(shrunk.splitlines()) <= 5, shrunk
    return {
        "original_lines": len(original.splitlines()),
        "original_chars": len(original),
        "shrunk_lines": len(shrunk.splitlines()),
        "shrunk_chars": len(shrunk),
        "shrunk_source": shrunk,
    }


def test_e17_smoke(fuzz_seed):
    """CI smoke gate: a short fixed-seed campaign finds nothing new."""
    stats = run_campaign(fuzz_seed, budget=SMOKE_BUDGET, time_limit=30.0)
    assert stats.programs == SMOKE_BUDGET
    assert not stats.unallowlisted, "\n\n".join(
        divergence.describe() for divergence in stats.unallowlisted
    )


def test_e17_fuzz_conformance(fuzz_seed):
    stats = run_campaign(fuzz_seed, budget=FULL_BUDGET)
    assert stats.programs >= 500
    assert not stats.unallowlisted, "\n\n".join(
        divergence.describe() for divergence in stats.unallowlisted
    )
    assert stats.production_coverage >= COVERAGE_FLOOR, sorted(
        name
        for name in ProgramGenerator.PRODUCTIONS
        if not stats.coverage.get(name)
    )
    demo = _shrinker_demo(fuzz_seed)

    rows = [
        ("programs generated", stats.programs),
        ("  xquery pair", stats.by_kind.get("xquery", 0)),
        ("  metamorphic pairs", stats.by_kind.get("metamorphic", 0)),
        ("  calculus fleet", stats.by_kind.get("calculus", 0)),
        (
            "grammar coverage",
            f"{stats.productions_hit}/{len(ProgramGenerator.PRODUCTIONS)} "
            f"({stats.production_coverage:.0%})",
        ),
        ("divergences", len(stats.divergences)),
        ("  unallowlisted", len(stats.unallowlisted)),
        (
            "shrinker demo",
            f"{demo['original_lines']} lines -> {demo['shrunk_lines']} "
            f"({demo['original_chars']} -> {demo['shrunk_chars']} chars)",
        ),
        ("elapsed", f"{stats.elapsed:.1f}s"),
    ]
    table = format_table(("metric", f"seed={stats.seed}"), rows)
    record_result("e17_fuzz_conformance.txt", table)

    payload = stats.to_json()
    payload["shrinker_demo"] = demo
    record_json("e17_fuzz_conformance.json", payload)
    record_json("BENCH_e17.json", payload, directory=REPO_ROOT)
