"""Generative differential conformance harness.

The repo carries four implementations that must agree — the treewalk
interpreter, the algebra backend (with its closure-compiler fallback),
the cached/fault-tolerant
:class:`~repro.querycalc.service.QueryService`, and the native-vs-XQuery
calculus pair — and hand-written parity corpora only cover the programs
someone thought to write.  This package generates the rest:

* :mod:`repro.testing.generator` — a seeded, grammar-driven XQuery-subset
  program generator (weighted productions over FLWOR, paths, predicates,
  constructors with duplicate-attribute modes, error-as-value idioms,
  ``fn:trace``, typeswitch/try-catch);
* :mod:`repro.testing.models` — random AWB models and random calculus
  queries over them;
* :mod:`repro.testing.oracle` — the differential oracles that run one
  generated program under every implementation and compare serialized
  results, trace output, and error codes (with an allowlist for
  divergences that are deliberate period-accurate quirks);
* :mod:`repro.testing.metamorphic` — semantics-preserving rewrites
  (predicate↔where, let-inlining, sequence reassociation) whose two
  renderings must evaluate identically;
* :mod:`repro.testing.shrinker` — a delta-debugging reducer that turns
  any diverging program into a minimal reproducer;
* :mod:`repro.testing.corpus` — the persisted regression corpus under
  ``tests/corpus/fuzz/``, auto-replayed by ``tests/test_fuzz_regressions.py``;
* :mod:`repro.testing.fuzz` — the campaign driver and CLI
  (``python -m repro.testing.fuzz --seed N --budget K --shrink``).
"""

from .generator import GENERATOR_VERSION, GenExpr, ProgramGenerator
from .metamorphic import METAMORPHIC_RULES, metamorphic_pair
from .models import random_calculus_query, random_model
from .oracle import (
    ALLOWLIST,
    CalculusOracle,
    Divergence,
    ServingOracle,
    assert_calculus_parity,
    compare_xquery,
    run_outcome,
    xquery_outcomes,
)
from .shrinker import shrink_program, shrink_text


def __getattr__(name: str):
    # lazy: importing these eagerly would shadow ``python -m
    # repro.testing.fuzz`` (the module would exist in sys.modules before
    # runpy executes it, which CPython warns about).
    if name in ("CampaignStats", "run_campaign"):
        from . import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ALLOWLIST",
    "CampaignStats",
    "CalculusOracle",
    "Divergence",
    "GENERATOR_VERSION",
    "GenExpr",
    "METAMORPHIC_RULES",
    "ProgramGenerator",
    "ServingOracle",
    "assert_calculus_parity",
    "compare_xquery",
    "metamorphic_pair",
    "random_calculus_query",
    "random_model",
    "run_campaign",
    "run_outcome",
    "shrink_program",
    "shrink_text",
    "xquery_outcomes",
]
