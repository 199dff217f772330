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

from ...lazy import lazy_exports

# each name loads its own layer on first use: the engine's update checker
# and explain's statistics catalog need only ``diagnostics`` and ``schema``,
# and neither should pay for the analyzer.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        **dict.fromkeys(
            ("EMPTY", "ONE", "OPT", "PLUS", "STAR", "Binding", "Card"), ".cardinality"
        ),
        **dict.fromkeys(
            ("AttributeSchema", "DocumentSchema", "ElementSchema", "awb_export_schema"),
            ".schema",
        ),
        **dict.fromkeys(
            (
                "AbstractItem",
                "Inferred",
                "ModuleTypeAnalysis",
                "TypeAnalyzer",
                "TypeFinding",
                "check_sequence",
                "infer_body_type",
                "occurrence_indicator",
            ),
            ".types",
        ),
        **dict.fromkeys(
            (
                "BASELINE_PATH",
                "CorpusUnit",
                "corpus_units",
                "diff_against_baseline",
                "format_baseline",
                "lint_corpus",
                "lint_unit",
                "load_baseline",
            ),
            ".corpus",
        ),
        **dict.fromkeys(
            (
                "SEVERITIES",
                "Diagnostic",
                "LintWarning",
                "severity_at_least",
                "sort_diagnostics",
            ),
            ".diagnostics",
        ),
        **dict.fromkeys(("analyze_module", "analyze_source", "parse_for_lint"), ".driver"),
        **dict.fromkeys(("RULES", "ModuleAnalysis", "Rule", "rule_catalog"), ".rules"),
    },
)

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
