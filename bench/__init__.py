"""One benchmark for the whole system.

``python -m bench run`` drives four seeded, closed-loop workloads through
the public entry points of ``repro`` (document generation, cold and warm
calculus serving, collection search), checks every answer against a
reference path, and prints the end-to-end metrics.  ``--trace`` wraps the
layers' public entry points from this package and prints per-layer
metrics instead.  ``python -m bench compare`` applies the gain/regression
rule to two sets of runs.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root: ``bench/`` lives directly under it, beside ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_src() -> None:
    """Make the checkout's ``src/`` importable, or stop with a message.

    The benchmark measures the program as checked out next to it; without
    ``src/repro`` there is nothing to measure, and the run must fail
    before it prints a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
