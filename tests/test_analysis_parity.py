"""The static analyzer pinned against its own earlier output.

``ANALYSIS_SHA256`` is one digest over a fixed corpus: the lint-corpus
units (the assembled docgen programs, the standalone phase modules and
``examples/xq/``), the fuzz pins under ``tests/corpus/fuzz/`` and 500
generated programs.  For each input the row holds:

* the rendered :func:`analyze_module` diagnostics, in order, with
  ``lint_schema`` set to ``"awb"`` and to ``"off"``;
* the :func:`check_module` issues;
* :func:`infer_body_type`'s description;
* ``explain()["text"]``, whose plan lines carry the occurrence marks the
  scoped walk infers.

The digest was recorded before the analyzer's scope rule became one
function.  ``FIXED`` lists the rows that change on purpose, each with its
rendering before and after; ``before`` is ``None`` for a row the fix
added.  The digest is taken over every row with the ``FIXED`` rows put
back to ``before``, so a row that changes without being listed fails.
Do not re-record the digest unless a generator changed on purpose.
"""

import hashlib
import random

import pytest

from repro.testing.generator import ProgramGenerator
from repro.xquery import XQueryEngine
from repro.xquery.analysis import analyze_module, corpus_units, parse_for_lint
from repro.xquery.analysis.types import check_module, infer_body_type
from repro.xquery.context import EngineConfig
from repro.xquery.errors import XQueryError

SEED = 20040522
GENERATED = 500


def corpus():
    """``(label, source)`` for every input, in a fixed order."""
    rows = [(unit.label, unit.source) for unit in corpus_units(["tests/corpus/fuzz"])]
    generator = ProgramGenerator(random.Random(SEED))
    rows += [(f"generated:{n}", generator.program().render()) for n in range(GENERATED)]
    return rows


def _failure(error: Exception) -> str:
    return f"!{type(error).__name__}:{getattr(error, 'code', '')}"


def row(source: str) -> str:
    """Everything the analyzer says about *source*, as one string."""
    try:
        module, has_body = parse_for_lint(source)
    except XQueryError as error:
        return _failure(error)
    parts = []
    for schema in ("awb", "off"):
        findings = analyze_module(
            module, config=EngineConfig(lint_schema=schema), has_body=has_body
        )
        parts.append("\n".join(finding.render() for finding in findings))
    parts.append("\n".join(str(issue) for issue in check_module(module)))
    inferred = infer_body_type(module)
    parts.append(inferred.describe() if inferred is not None else "-")
    try:
        parts.append(XQueryEngine().compile(source).explain()["text"])
    except XQueryError as error:
        parts.append(_failure(error))
    return "\n--\n".join(parts)


#: recorded before the scope rule became one function.
CORPUS_ROWS = 520
ANALYSIS_SHA256 = "e9d59f9b5164a9d8a70684fb22c1ef5794d92ff7c39b6701b12e0149f20cea39"

_DEAD_ELSE = (
    "<query>:1:158: XQL005 [warning] in <body>: condition is constantly true; "
    "the else branch is unreachable"
)
_CASE_SHADOW = (
    "<query>:3:22: XQL006 [warning] in <body>: case binding $v shadows an "
    "in-scope variable of the same name"
)

#: label -> (before, after) for the rows the scope fixes change.
FIXED = {
    # the occurrence pass now binds the typeswitch case variable
    # ``$t44 as xs:integer``: both branches return exactly one item.
    "generated:25": (
        f"{_DEAD_ELSE}\n--\n{_DEAD_ELSE}\n--\n\n--\nitem()*\n--\n"
        "Eval(Typeswitch@1:2)  (~1 rows)  [occ=*]",
        f"{_DEAD_ELSE}\n--\n{_DEAD_ELSE}\n--\n\n--\nitem()\n--\n"
        "Eval(Typeswitch@1:2)  (~1 rows)  [occ=1]",
    ),
    # the fuzz pin for the same fix.
    "tests/corpus/fuzz/type_typeswitch_case_var_card.xq": (
        None,
        f"{_CASE_SHADOW}\n--\n{_CASE_SHADOW}\n--\n\n--\nitem()?\n--\n"
        "FLWOR  (~1 rows)\n"
        "  Let $v  (~1 tuples)  [occ=empty]\n"
        "    Empty()  (~0 rows)\n"
        "  Return\n"
        "    Select[position() = 1]  (~1 rows)  [occ=?]\n"
        "      Eval(Typeswitch@3:22)  (~1 rows)  [occ=?]",
    ),
}


@pytest.fixture(scope="module")
def rows():
    return [(label, row(source)) for label, source in corpus()]


def test_fixed_rows_render_as_recorded(rows):
    rendered = dict(rows)
    for label, (_before, after) in FIXED.items():
        assert rendered[label] == after, label


def test_analysis_matches_the_recorded_digest(rows):
    digest = hashlib.sha256()
    count = 0
    for label, text in rows:
        if label in FIXED:
            text = FIXED[label][0]
            if text is None:
                continue
        count += 1
        digest.update(f"{label}\0{text}\0".encode())
    assert count == CORPUS_ROWS
    assert digest.hexdigest() == ANALYSIS_SHA256
