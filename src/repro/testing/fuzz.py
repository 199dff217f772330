"""The fuzz campaign driver and CLI.

One campaign interleaves the three program kinds — raw XQuery programs
for the engine pair, metamorphic pairs, and calculus queries for the
native/via-XQuery/service fleet — from a single seeded stream, so
``--seed N --budget K`` always regenerates the identical campaign.
Every raw XQuery program additionally feeds the type-soundness oracle:
the static analyzer's inferred type for the body must admit the runtime
value the reference backend produces (``kind="type-soundness"``
divergences are analyzer bugs, not backend bugs).

Usage::

    PYTHONPATH=src python -m repro.testing.fuzz --seed 7 --budget 500 --shrink
    PYTHONPATH=src python -m repro.testing.fuzz --seed 7 --budget 150 --check

``--check`` exits non-zero if any unallowlisted divergence survives —
that is the CI ``fuzz-smoke`` gate.  ``--pin DIR`` writes each shrunk
diverging program into the regression corpus with its provenance header.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..xquery import EngineConfig
from ..xquery.errors import XQueryStaticError  # noqa: F401  (re-export for tests)
from .generator import GENERATOR_VERSION, GenExpr, ProgramGenerator, atom
from .metamorphic import metamorphic_pair
from .models import (
    random_calculus_query,
    random_document_store,
    random_model,
    random_phrase,
)
from .oracle import (
    CalculusOracle,
    CollectionOracle,
    Divergence,
    compare_sources,
    divergence_from,
    has_timeout,
    type_soundness_divergence,
    xquery_outcomes,
)
from .shrinker import shrink_program

#: wall-clock budget per generated program run; a timeout skips the
#: comparison (the other backend may simply be faster), it never fails it.
PROGRAM_TIMEOUT = 2.0

#: how many calculus queries share one random model before a fresh one.
QUERIES_PER_MODEL = 25

KINDS = ("xquery", "metamorphic", "calculus", "collection")

#: how many collection programs share one seeded document store.  The
#: store is occasionally mutated between draws (an update script against
#: a model-backed document), so the incrementally-maintained index is
#: part of what every subsequent program differentially tests.
PROGRAMS_PER_STORE = 40


@dataclass
class CampaignStats:
    """Everything E17 and the CLI report about one campaign."""

    seed: int
    budget: int
    generator_version: int = GENERATOR_VERSION
    programs: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def unallowlisted(self) -> List[Divergence]:
        return [d for d in self.divergences if not d.allowlisted]

    @property
    def productions_hit(self) -> int:
        return sum(1 for p in ProgramGenerator.PRODUCTIONS if self.coverage.get(p))

    @property
    def production_coverage(self) -> float:
        return self.productions_hit / len(ProgramGenerator.PRODUCTIONS)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "generator_version": self.generator_version,
            "programs": self.programs,
            "by_kind": dict(self.by_kind),
            "outcomes": dict(self.outcomes),
            "productions_total": len(ProgramGenerator.PRODUCTIONS),
            "productions_hit": self.productions_hit,
            "production_coverage": round(self.production_coverage, 4),
            "coverage": dict(sorted(self.coverage.items())),
            "divergences": len(self.divergences),
            "unallowlisted_divergences": len(self.unallowlisted),
            "allowlisted": [
                {"rule": d.allowlisted, "detail": d.detail, "source": d.source}
                for d in self.divergences
                if d.allowlisted
            ],
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget} "
            f"gen=v{self.generator_version}",
            f"  programs          {self.programs}  ({self.by_kind})",
            f"  outcomes          {self.outcomes}",
            f"  grammar coverage  {self.productions_hit}/"
            f"{len(ProgramGenerator.PRODUCTIONS)} productions "
            f"({self.production_coverage:.0%})",
            f"  divergences       {len(self.divergences)} "
            f"({len(self.unallowlisted)} unallowlisted)",
            f"  elapsed           {self.elapsed:.1f}s",
        ]
        for divergence in self.divergences:
            lines.append("")
            lines.append(divergence.describe())
        return "\n".join(lines)


def _random_config(rng: random.Random) -> EngineConfig:
    """A per-program engine configuration draw.

    Defaults dominate; the quirk modes (duplicate-attribute handling,
    Galax diagnostics, the trace-deleting optimizer bug) appear often
    enough that their parity is continuously exercised.
    """
    mode = "last"
    if rng.random() < 0.4:
        mode = rng.choice(("last", "first", "keep", "error"))
    return EngineConfig(
        duplicate_attribute_mode=mode,
        galax_diagnostics=rng.random() < 0.08,
        optimize=rng.random() < 0.85,
        trace_is_dead_code=rng.random() < 0.15,
        # the pair oracle runs every backend regardless; drawing a default
        # here also exercises the algebra plan cache + default dispatch.
        # four entries keep the seeded stream's later draws where they are.
        backend=rng.choice(("treewalk", "treewalk", "algebra", "algebra")),
    )


def _count_outcome(stats: CampaignStats, outcomes: Dict[str, tuple]) -> None:
    if has_timeout(outcomes):
        stats.outcomes["timeout-skipped"] = stats.outcomes.get("timeout-skipped", 0) + 1
        return
    first = next(iter(outcomes.values()))
    key = first[0] if first[0] in ("error", "crash") else "ok"
    stats.outcomes[key] = stats.outcomes.get(key, 0) + 1


def run_campaign(
    seed: int,
    budget: int,
    shrink: bool = False,
    kinds: Sequence[str] = KINDS,
    max_fuel: int = 14,
    time_limit: Optional[float] = None,
    serving: bool = True,
) -> CampaignStats:
    """Run one seeded campaign of ``budget`` generated programs.

    ``serving=True`` (the default) adds the process-pool service to the
    calculus fleet: every calculus draw also runs through real worker
    processes, each query whole on one worker.  The flag draws nothing from the RNG, so campaigns with and
    without it generate identical programs.
    """
    rng = random.Random(seed)
    stats = CampaignStats(seed=seed, budget=budget)
    generator = ProgramGenerator(rng, max_fuel=max_fuel, coverage=stats.coverage)
    started = time.perf_counter()
    oracle: Optional[CalculusOracle] = None
    model_queries = 0
    model_index = 0
    coll_oracle: Optional[CollectionOracle] = None
    store_programs = 0
    store_index = 0
    weights = {"xquery": 50, "metamorphic": 15, "calculus": 20, "collection": 15}
    active = [k for k in KINDS if k in kinds]
    for _ in range(budget):
        if time_limit is not None and time.perf_counter() - started > time_limit:
            break
        kind = rng.choices(active, weights=[weights[k] for k in active], k=1)[0]
        stats.programs += 1
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if kind == "xquery":
            config = _random_config(rng)
            # one draw in ten is the correlated shape lowering hash-joins,
            # and one in ten a step through the predicate rule's shapes
            roll = rng.random()
            if roll < 0.1:
                program = generator.join_program()
            elif roll < 0.2:
                program = generator.predicate_program()
            else:
                program = generator.program()
            source = program.render()
            outcomes = xquery_outcomes(source, config, timeout=PROGRAM_TIMEOUT)
            _count_outcome(stats, outcomes)
            divergence = divergence_from(source, outcomes, "xquery-pair")
            if divergence is not None:
                if shrink and not divergence.allowlisted:
                    divergence.shrunk_source = shrink_divergence(program, config)
                stats.divergences.append(divergence)
            # every raw program also feeds the type-soundness oracle: the
            # inferred static type of the body must admit the value the
            # reference backend actually produced.
            soundness = type_soundness_divergence(
                source, config, timeout=PROGRAM_TIMEOUT
            )
            stats.outcomes["type-soundness-checked"] = (
                stats.outcomes.get("type-soundness-checked", 0) + 1
            )
            if soundness is not None:
                if shrink and not soundness.allowlisted:
                    soundness.shrunk_source = shrink_soundness(program, config)
                stats.divergences.append(soundness)
        elif kind == "metamorphic":
            original, rewritten, rule = metamorphic_pair(rng, generator)
            divergence = compare_sources(
                original,
                rewritten,
                detail=f"rule={rule}",
                timeout=PROGRAM_TIMEOUT,
            )
            stats.outcomes["metamorphic-pair"] = (
                stats.outcomes.get("metamorphic-pair", 0) + 1
            )
            if divergence is not None:
                stats.divergences.append(divergence)
        elif kind == "collection":
            if coll_oracle is None or store_programs >= PROGRAMS_PER_STORE:
                store_index += 1
                if coll_oracle is not None:
                    coll_oracle.close()
                coll_oracle = CollectionOracle(
                    random_document_store(seed * 777 + store_index),
                    timeout=PROGRAM_TIMEOUT,
                    serving=serving,
                )
                store_programs = 0
            store_programs += 1
            divergence = _collection_draw(rng, generator, coll_oracle, serving)
            stats.outcomes["collection-program"] = (
                stats.outcomes.get("collection-program", 0) + 1
            )
            if divergence is not None:
                stats.divergences.append(divergence)
        else:
            if oracle is None or model_queries >= QUERIES_PER_MODEL:
                model_index += 1
                if oracle is not None:
                    oracle.close()
                oracle = CalculusOracle(
                    random_model(seed * 1000 + model_index), serving=serving
                )
                model_queries = 0
            query = random_calculus_query(rng, oracle.model)
            model_queries += 1
            divergence = oracle.compare(query)
            stats.outcomes["calculus-query"] = (
                stats.outcomes.get("calculus-query", 0) + 1
            )
            if divergence is not None:
                stats.divergences.append(divergence)
    if oracle is not None:
        oracle.close()
    if coll_oracle is not None:
        coll_oracle.close()
    stats.elapsed = time.perf_counter() - started
    return stats


def _collection_draw(
    rng: random.Random,
    generator: ProgramGenerator,
    oracle: CollectionOracle,
    serving: bool,
) -> Optional[Divergence]:
    """One collection-kind draw against a shared seeded store.

    Occasionally mutates the store first — a write through every serving
    tier, so replicas patch incrementally and generation-keyed cache
    entries go cold — then compares either a generated program (all
    backends, indexed vs scan) or a structured request (direct engine vs
    service cold/warm vs a multi-worker service over whole-store replicas).  The RNG draws are
    identical with and without ``serving``: when the process/thread tiers
    are absent, the same generated request still runs as its source
    program under the four-way program oracle.
    """
    from ..collections import SearchRequest
    from ..collections.service import REQUEST_KINDS
    from .models import FT_COLLECTIONS

    store = oracle.store
    roll = rng.random()
    if roll < 0.12:
        uri = f"docs/w{rng.randrange(0, 5)}.xml"
        if rng.random() < 0.25 and uri in store:
            oracle.delete(uri)
        else:
            words = " ".join(random_phrase(rng, 1) for _ in range(rng.randrange(2, 9)))
            oracle.put_text(uri, f"<doc>{words}</doc>")
    uris = store.uris()
    collections = store.known_collections() or list(FT_COLLECTIONS)
    phrases = [random_phrase(rng) for _ in range(4)]
    if rng.random() < 0.25:
        kind = rng.choice([k for k in REQUEST_KINDS if k != "doc"] + ["doc"] * 2)
        request = SearchRequest(
            kind=kind,
            uri=rng.choice(uris) if uris else "missing.xml",
            collection=rng.choice(list(collections)),
            phrase=random_phrase(rng),
            width=rng.choice((10, 20, 40)),
            limit=rng.choice((0, 0, 1, 3)),
        )
        if oracle.services:
            return oracle.compare_request(request)
        return oracle.compare(request.source())
    program = generator.collection_program(uris, list(collections), phrases)
    return oracle.compare(program.render())


def shrink_divergence(program: GenExpr, config: EngineConfig) -> str:
    """Reduce a diverging generated program to its minimal reproducer."""
    from .oracle import compare_xquery

    def is_interesting(source: str) -> bool:
        divergence = compare_xquery(source, config, timeout=PROGRAM_TIMEOUT)
        return divergence is not None and not divergence.allowlisted

    return shrink_program(program, is_interesting).render()


def shrink_soundness(program: GenExpr, config: EngineConfig) -> str:
    """Reduce a program whose runtime value escaped its inferred type."""

    def is_interesting(source: str) -> bool:
        divergence = type_soundness_divergence(
            source, config, timeout=PROGRAM_TIMEOUT
        )
        return divergence is not None and not divergence.allowlisted

    return shrink_program(program, is_interesting).render()


# -- deliberate fault injection (exercises the shrinker end to end) ------------


def graft_trigger(program: GenExpr, trigger_source: str = "7 idiv 2") -> GenExpr:
    """Bury ``trigger_source`` inside a generated program's body.

    Used by E17 and the harness tests: with :func:`injected_interesting`
    as the oracle, the grafted program "diverges", and the shrinker must
    dig the trigger back out as a ≤5-line reproducer.
    """
    parts = list(program.parts)
    body = parts[-1]
    assert isinstance(body, GenExpr)
    parts[-1] = GenExpr(
        "sequence", ["(", body, ", (", atom(trigger_source), "))"], flavor="sequence"
    )
    return GenExpr("program", parts, flavor="sequence")


def injected_interesting(
    config: Optional[EngineConfig] = None, trigger: str = "idiv"
):
    """An interestingness predicate simulating a backend bug on ``trigger``.

    A candidate is "diverging" when it still contains the trigger token
    and still compiles — the behavioral analogue of a codegen bug in one
    backend's handling of that operator.
    """

    def is_interesting(source: str) -> bool:
        if trigger not in source:
            return False
        outcomes = xquery_outcomes(source, config, timeout=PROGRAM_TIMEOUT)
        if has_timeout(outcomes):
            return False
        first = next(iter(outcomes.values()))
        # a static (compile) error means the candidate mangled the program
        # beyond the point where the "bug" could execute.
        return not (first[0] == "error" and first[1] == "XQueryStaticError")

    return is_interesting


# -- CLI -----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential conformance fuzzing for the engine fleet.",
    )
    parser.add_argument("--seed", type=int, default=20040522, help="campaign seed")
    parser.add_argument(
        "--budget", type=int, default=200, help="number of generated programs"
    )
    parser.add_argument(
        "--shrink", action="store_true", help="reduce each diverging program"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 2 if any unallowlisted divergence is found (CI gate)",
    )
    parser.add_argument(
        "--kinds",
        default=",".join(KINDS),
        help=f"comma-separated subset of {KINDS}",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, help="stop after N seconds"
    )
    parser.add_argument("--max-fuel", type=int, default=14, help="program size budget")
    parser.add_argument(
        "--no-serving",
        action="store_true",
        help="skip the process-pool oracle on calculus draws "
             "(the generated program stream is identical either way)",
    )
    parser.add_argument("--json", default=None, help="write stats JSON to this path")
    parser.add_argument(
        "--pin",
        default=None,
        metavar="DIR",
        help="write shrunk diverging programs into this corpus directory",
    )
    args = parser.parse_args(argv)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = set(kinds) - set(KINDS)
    if unknown:
        parser.error(f"unknown kinds: {sorted(unknown)}")
    stats = run_campaign(
        args.seed,
        args.budget,
        shrink=args.shrink,
        kinds=kinds,
        max_fuel=args.max_fuel,
        time_limit=args.time_limit,
        serving=not args.no_serving,
    )
    print(stats.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[stats written to {args.json}]")
    if args.pin and stats.divergences:
        from .corpus import write_xquery_case

        for index, divergence in enumerate(stats.divergences):
            if divergence.kind == "calculus":
                continue
            path = write_xquery_case(
                args.pin,
                f"pinned_seed{args.seed}_{index}",
                divergence.shrunk_source or divergence.source,
                note=f"auto-pinned divergence ({divergence.kind})",
                allow=divergence.allowlisted,
                seed=args.seed,
                generator_version=GENERATOR_VERSION,
            )
            print(f"[pinned {path}]")
    if args.check and stats.unallowlisted:
        print(
            f"FUZZ GATE FAILED: {len(stats.unallowlisted)} unallowlisted "
            "divergence(s)",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
