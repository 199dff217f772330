"""Package re-exports that load their submodule on first use (PEP 562).

A package ``__init__`` that imports a name from a submodule makes every
importer of the package load that submodule, whether or not its path ever
runs it.  :func:`lazy_exports` keeps such a name in the package's
namespace and ``__all__`` but imports its submodule only when the name is
first read; the value is then stored in the package's globals, so later
reads never come back here.

Only names a path may not run belong in the table.  Code a forked worker
reaches stays imported at module top (see :mod:`repro.serving.worker`).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps each lazy name to the submodule, relative to
    ``package`` (``".types"``), that defines it.  Use it as
    ``__getattr__, __dir__ = lazy_exports(__name__, {...})``.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(submodule, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
