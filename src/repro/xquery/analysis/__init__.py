"""Static analysis for the XQuery subset — the tooling the paper lacked.

The paper's toolchain gave "no information of where" when queries failed;
this package is the counterfactual: a multi-pass analyzer with located
diagnostics for exactly the footguns the paper documents (dead traces,
unchecked error values, positional-predicate surprises, attribute folding),
plus ordinary hygiene (dead code, shadowing, name/arity resolution).

Layers: :mod:`.diagnostics` (the finding model), :mod:`.cardinality`
(the empty/one/many occurrence lattice and the one scope rule,
``scopes``, that every pass and rule reads binder scopes from),
:mod:`.schema` (document schemas from the AWB export conventions),
:mod:`.types` (``TypeAnalyzer``, the one analyzer: occurrence, attribute
and item-type inference, the typed mode the paper skipped, and the
whole-module pass), :mod:`.rules` (XQL001–XQL012 and the registry),
:mod:`.driver` (entry points), and :mod:`.corpus` (linting the repo's
own .xq sources against a baseline).
"""

from .cardinality import (
    EMPTY,
    ONE,
    OPT,
    PLUS,
    STAR,
    Binding,
    Card,
)
from .schema import (
    AttributeSchema,
    DocumentSchema,
    ElementSchema,
    awb_export_schema,
)
from .types import (
    AbstractItem,
    Inferred,
    ModuleTypeAnalysis,
    TypeAnalyzer,
    TypeFinding,
    check_sequence,
    infer_body_type,
    occurrence_indicator,
)
from .corpus import (
    BASELINE_PATH,
    CorpusUnit,
    corpus_units,
    diff_against_baseline,
    format_baseline,
    lint_corpus,
    lint_unit,
    load_baseline,
)
from .diagnostics import (
    SEVERITIES,
    Diagnostic,
    LintWarning,
    severity_at_least,
    sort_diagnostics,
)
from .driver import analyze_module, analyze_source, parse_for_lint
from .rules import RULES, ModuleAnalysis, Rule, rule_catalog

__all__ = [
    "AbstractItem",
    "AttributeSchema",
    "BASELINE_PATH",
    "Binding",
    "Card",
    "CorpusUnit",
    "Diagnostic",
    "DocumentSchema",
    "EMPTY",
    "ElementSchema",
    "Inferred",
    "LintWarning",
    "ModuleAnalysis",
    "ModuleTypeAnalysis",
    "ONE",
    "OPT",
    "PLUS",
    "RULES",
    "Rule",
    "SEVERITIES",
    "STAR",
    "TypeAnalyzer",
    "TypeFinding",
    "awb_export_schema",
    "check_sequence",
    "infer_body_type",
    "occurrence_indicator",
    "analyze_module",
    "analyze_source",
    "corpus_units",
    "diff_against_baseline",
    "format_baseline",
    "lint_corpus",
    "lint_unit",
    "load_baseline",
    "parse_for_lint",
    "rule_catalog",
    "severity_at_least",
    "sort_diagnostics",
]
