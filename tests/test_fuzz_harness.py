"""The fuzzing harness tests itself: determinism, shrinking, oracles.

The harness is load-bearing (the ``fuzz-smoke`` CI job gates on it), so
its own machinery gets the same treatment as the engines: seeds must
reproduce campaigns bit-for-bit, the shrinker must actually reduce, the
metamorphic rewrites must actually preserve semantics, and the corpus
format must round-trip.
"""

import random

from repro.querycalc.ast import Collect, FilterProperty, Query, Start
from repro.testing.corpus import load_corpus, write_xquery_case
from repro.testing.fuzz import (
    graft_trigger,
    injected_interesting,
    run_campaign,
)
from repro.testing.generator import GenExpr, ProgramGenerator, atom
from repro.testing.metamorphic import METAMORPHIC_RULES, metamorphic_pair
from repro.testing.models import random_calculus_query, random_model
from repro.testing.oracle import (
    CalculusOracle,
    apply_allowlist,
    compare_sources,
    divergence_from,
    xquery_outcomes,
)
from repro.testing.shrinker import shrink_program, shrink_text


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic():
    render = lambda seed: [  # noqa: E731
        ProgramGenerator(random.Random(seed)).program().render() for _ in range(20)
    ]
    assert render(9) == render(9)
    assert render(9) != render(10)


def test_generated_programs_compile(fuzz_seed):
    generator = ProgramGenerator(random.Random(fuzz_seed))
    for _ in range(100):
        outcomes = xquery_outcomes(generator.program().render())
        for outcome in outcomes.values():
            assert outcome[0] != "crash", outcome


def test_generator_coverage_fills_up():
    coverage = {}
    generator = ProgramGenerator(random.Random(3), coverage=coverage)
    for _ in range(400):
        generator.program()
    # the correlated join shape lowering hash-joins and the predicate
    # rule's shapes have entry points of their own
    generator.join_program()
    generator.predicate_program()
    hit = sum(1 for name in ProgramGenerator.PRODUCTIONS if coverage.get(name))
    assert hit >= 0.9 * len(ProgramGenerator.PRODUCTIONS), sorted(
        name for name in ProgramGenerator.PRODUCTIONS if not coverage.get(name)
    )
    assert coverage.get("flwor-join")
    assert coverage.get("predicate-rule")


def test_genexpr_structural_operations():
    tree = GenExpr("seq", ["(", atom("1"), ", ", atom("2"), ")"])
    assert tree.render() == "(1, 2)"
    paths = [path for path, _ in tree.walk()]
    assert paths == [(), (1,), (3,)]
    assert tree.replace((3,), atom("9")).render() == "(1, 9)"
    assert tree.without_part((), 3).render() == "(1, )"  # raw part drop;
    # dangling-separator candidates self-reject because they no longer compile.


# -- metamorphic rewrites ------------------------------------------------------


def test_metamorphic_rules_preserve_semantics(fuzz_seed):
    rng = random.Random(fuzz_seed)
    generator = ProgramGenerator(rng)
    seen = set()
    for _ in range(120):
        original, rewritten, rule = metamorphic_pair(rng, generator)
        seen.add(rule)
        divergence = compare_sources(original, rewritten, detail=f"rule={rule}")
        assert divergence is None, divergence and divergence.describe()
    assert seen == set(METAMORPHIC_RULES)


# -- oracles -------------------------------------------------------------------


def test_crash_outcome_is_always_a_divergence():
    outcomes = {
        "treewalk": ("crash", "ValueError", "boom"),
        "algebra": ("crash", "ValueError", "boom"),
    }
    divergence = divergence_from("max(<x>et</x>)", outcomes, "xquery-pair")
    assert divergence is not None and not divergence.allowlisted
    assert "engine-crash" in divergence.detail


def test_allowlist_licenses_html_property_divergence():
    model = random_model(5, html_properties=True)
    query = Query(
        start=Start(all_nodes=True),
        steps=[FilterProperty(name="description", op="contains", value="<p>")],
        collect=Collect(sort_by=None, descending=False, distinct=True),
    )
    divergence = CalculusOracle(model).compare(query)
    assert divergence is not None
    assert divergence.allowlisted == "html-property-filter"


def test_apply_allowlist_leaves_real_divergences_alone():
    divergence = divergence_from(
        "probe",
        {"a": ("ok", "1", ()), "b": ("ok", "2", ())},
        "xquery-pair",
    )
    assert apply_allowlist(divergence).allowlisted is None


def test_calculus_oracle_randomized(fuzz_seed):
    rng = random.Random(fuzz_seed)
    model = random_model(fuzz_seed)
    oracle = CalculusOracle(model)
    for _ in range(40):
        divergence = oracle.compare(random_calculus_query(rng, model))
        assert divergence is None or divergence.allowlisted, divergence.describe()


# -- shrinker ------------------------------------------------------------------


def test_shrinker_reduces_injected_divergence_to_five_lines(fuzz_seed):
    # the acceptance criterion: graft a trigger expression deep into a big
    # generated program, pretend one backend miscompiles it, and the
    # shrinker must dig it back out as a <=5-line reproducer.
    generator = ProgramGenerator(random.Random(fuzz_seed), max_fuel=18)
    program = graft_trigger(generator.program(), "7 idiv 2")
    is_interesting = injected_interesting()
    assert is_interesting(program.render())
    shrunk = shrink_program(program, is_interesting)
    source = shrunk.render()
    assert is_interesting(source)
    assert "idiv" in source
    assert len(source.splitlines()) <= 5, source
    assert len(source) < len(program.render())


def test_shrink_text_ddmin():
    source = "\n".join(f"line {i}" for i in range(20)) + "\nTRIGGER\nline 20"
    shrunk = shrink_text(source, lambda s: "TRIGGER" in s)
    assert "TRIGGER" in shrunk
    assert len(shrunk) <= len("TRIGGER") + 2


# -- campaigns and the CLI -----------------------------------------------------


def test_campaign_is_deterministic(fuzz_seed):
    def snapshot():
        payload = run_campaign(fuzz_seed, budget=50).to_json()
        payload.pop("elapsed_seconds")
        return payload

    assert snapshot() == snapshot()


def test_campaign_counts_and_coverage(fuzz_seed):
    stats = run_campaign(fuzz_seed, budget=120)
    assert stats.programs == 120
    assert sum(stats.by_kind.values()) == 120
    assert stats.productions_hit > 0
    assert not stats.unallowlisted


def test_cli_check_gate(tmp_path, fuzz_seed):
    from repro.testing import fuzz as fuzz_cli

    json_path = tmp_path / "stats.json"
    code = fuzz_cli.main(
        [
            "--seed",
            str(fuzz_seed),
            "--budget",
            "40",
            "--check",
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    assert json_path.exists()


# -- corpus format -------------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    directory = str(tmp_path)
    write_xquery_case(
        directory,
        "roundtrip",
        "1 + 1",
        config={"duplicate_attribute_mode": "keep"},
        note="format round-trip",
        seed=7,
        generator_version=1,
    )
    (case,) = load_corpus(directory)
    assert case.name == "roundtrip.xq"
    assert case.kind == "xquery"
    assert case.source == "1 + 1"
    assert case.engine_config().duplicate_attribute_mode == "keep"
    assert case.note == "format round-trip"
    assert case.seed == 7 and case.generator_version == 1
    assert case.allow is None
