"""Structural module signatures: :attr:`CompiledQuery.plan_signature`.

Two queries that differ only in whitespace, comments, or source positions
parse to ASTs that differ only in ``line``/``column`` fields.  A caller
that wants to treat those as the same query keys on the signature, which
walks the dataclass fields and deliberately skips positions.  (The query
service keys its results on the generated source instead, and shared
scans on tuples built from their compiled steps; neither walks the AST.)

The signature is a plain string (stable, hashable, comparable) rather than
a hash, so collisions are impossible and the fuzzer cannot manufacture a
false cache hit.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict, List

from .. import ast

__all__ = ["module_signature"]

_SKIP_FIELDS = {"line", "column"}

#: per-class dispatch cache: ``(kind, header, field_names)``.  Resolving
#: the isinstance chain, the type name, and the dataclass field list once
#: per class (``fields()`` rebuilds a tuple from the class dict on every
#: call) dominated signature time before this cache.
_DATACLASS, _SEQUENCE, _STRING, _SCALAR = 0, 1, 2, 3
_CLASS_INFO: Dict[type, tuple] = {}


def _class_info(cls: type) -> tuple:
    if is_dataclass(cls) or issubclass(cls, ast.Expr):
        names = tuple(
            field.name for field in fields(cls) if field.name not in _SKIP_FIELDS
        )
        info = (_DATACLASS, cls.__name__ + "(", names)
    elif issubclass(cls, (list, tuple)):
        info = (_SEQUENCE, "", ())
    elif issubclass(cls, str):
        info = (_STRING, "", ())
    else:
        # numbers, booleans, SequenceType reprs: repr is stable and total.
        info = (_SCALAR, cls.__name__ + ":", ())
    _CLASS_INFO[cls] = info
    return info


def _write(out: List[str], value) -> None:
    if value is None:
        out.append("~")
        return
    cls = value.__class__
    info = _CLASS_INFO.get(cls)
    if info is None:
        info = _class_info(cls)
    kind = info[0]
    if kind == _DATACLASS:
        out.append(info[1])
        for name in info[2]:
            _write(out, getattr(value, name))
            out.append(",")
        out.append(")")
    elif kind == _SEQUENCE:
        out.append("[")
        for item in value:
            _write(out, item)
            out.append(",")
        out.append("]")
    elif kind == _STRING:
        out.append(repr(value))
    else:
        out.append(info[1] + repr(value))


def module_signature(module: ast.Module) -> str:
    """A structural key for a whole parsed module (prolog + body)."""
    out: List[str] = []
    _write(out, module.functions)
    _write(out, module.variables)
    _write(out, module.namespaces)
    _write(out, module.body)
    return "".join(out)
