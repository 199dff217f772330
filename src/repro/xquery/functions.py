"""The built-in function library (a useful subset of XQuery 1.0 F&O).

Each builtin takes ``(ctx, args, call_expr)`` where ``args`` is the list of
already-evaluated argument sequences, and returns a sequence.

Two functions get special care because the paper's debugging story depends
on them:

* ``fn:error`` — "prints $msg on the console and kills the program"; here
  it raises :class:`XQueryUserError` carrying the value, which the engine
  surfaces.  It was the paper's first tracing tool (binary search by
  strategically placed ``error()`` calls).
* ``fn:trace`` — "prints its arguments and returns the value of the last
  one" (the paper's description of the late-added Galax variant; note the
  eventual W3C signature returns the *first* argument — we implement the
  paper's).  Output goes to the context's :class:`TraceLog`.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Callable, Dict, List, Optional, Tuple

from ..xdm import (
    Node,
    Sequence,
    UntypedAtomic,
    atomize,
    deep_equal,
    effective_boolean_value,
    is_node,
    number_value,
    string_value_of_atomic,
    value_compare,
)
from ..xdm.compare import ComparisonTypeError
from .errors import XQueryDynamicError, XQueryTypeError, XQueryUserError
from .operators import _promote_pair

_REGISTRY: Dict[Tuple[str, int], Callable] = {}
_VARIADIC: Dict[str, Tuple[int, Callable]] = {}


def builtin(name: str, *arities: int, min_arity: Optional[int] = None):
    """Register a builtin under ``name`` for the given arities.

    ``min_arity`` registers a variadic function accepting that many or more
    arguments (used by ``concat`` and the paper's ``trace``).
    """

    def register(fn: Callable) -> Callable:
        if min_arity is not None:
            _VARIADIC[name] = (min_arity, fn)
        for arity in arities:
            _REGISTRY[(name, arity)] = fn
        return fn

    return register


def lookup_builtin(name: str, arity: int) -> Optional[Callable]:
    """Find a builtin implementation for ``name#arity``, or None."""
    fn = _REGISTRY.get((name, arity))
    if fn is not None:
        return fn
    variadic = _VARIADIC.get(name)
    if variadic is not None and arity >= variadic[0]:
        return variadic[1]
    return None


def builtin_names() -> List[str]:
    """All registered builtin names (for documentation and the audit)."""
    names = {name for name, _ in _REGISTRY}
    names.update(_VARIADIC)
    return sorted(names)


def _string_of(value: Sequence, what: str) -> str:
    if not value:
        return ""
    if len(value) > 1:
        raise XQueryTypeError(f"{what} requires a singleton (or empty) argument")
    item = value[0]
    if is_node(item):
        return item.string_value()
    return string_value_of_atomic(item)


def _optional_string(args: List[Sequence], index: int, default: str = "") -> str:
    if index >= len(args):
        return default
    return _string_of(args[index], f"argument {index + 1}")


def _numeric(value: Sequence, what: str) -> Optional[object]:
    atoms = atomize(value)
    if not atoms:
        return None
    if len(atoms) > 1:
        raise XQueryTypeError(f"{what} requires a singleton argument")
    atom = atoms[0]
    if isinstance(atom, bool):
        raise XQueryTypeError(f"{what} requires a numeric argument")
    if isinstance(atom, (int, float, Decimal)):
        return atom
    if isinstance(atom, UntypedAtomic):
        # the fuzzer caught the bare float() here too (cf.
        # _untyped_to_double): round(text { 's' }) escaped as a raw
        # Python ValueError instead of a spec error code.
        return _untyped_to_double(atom, what)
    raise XQueryTypeError(f"{what} requires a numeric argument")


# -- general -------------------------------------------------------------------


@builtin("true", 0)
def _fn_true(ctx, args, expr) -> Sequence:
    return [True]


@builtin("false", 0)
def _fn_false(ctx, args, expr) -> Sequence:
    return [False]


@builtin("not", 1)
def _fn_not(ctx, args, expr) -> Sequence:
    return [not effective_boolean_value(args[0])]


@builtin("boolean", 1)
def _fn_boolean(ctx, args, expr) -> Sequence:
    return [effective_boolean_value(args[0])]


@builtin("count", 1)
def _fn_count(ctx, args, expr) -> Sequence:
    return [len(args[0])]


@builtin("empty", 1)
def _fn_empty(ctx, args, expr) -> Sequence:
    return [not args[0]]


@builtin("exists", 1)
def _fn_exists(ctx, args, expr) -> Sequence:
    return [bool(args[0])]


@builtin("data", 1)
def _fn_data(ctx, args, expr) -> Sequence:
    return atomize(args[0])


@builtin("position", 0)
def _fn_position(ctx, args, expr) -> Sequence:
    if ctx.item is None:
        raise XQueryDynamicError("position() with no context item", code="XPDY0002")
    return [ctx.position]


@builtin("last", 0)
def _fn_last(ctx, args, expr) -> Sequence:
    if ctx.item is None:
        raise XQueryDynamicError("last() with no context item", code="XPDY0002")
    return [ctx.size]


@builtin("exactly-one", 1)
def _fn_exactly_one(ctx, args, expr) -> Sequence:
    if len(args[0]) != 1:
        raise XQueryDynamicError(
            f"exactly-one: got {len(args[0])} items", code="FORG0005"
        )
    return args[0]


@builtin("zero-or-one", 1)
def _fn_zero_or_one(ctx, args, expr) -> Sequence:
    if len(args[0]) > 1:
        raise XQueryDynamicError(
            f"zero-or-one: got {len(args[0])} items", code="FORG0003"
        )
    return args[0]


@builtin("one-or-more", 1)
def _fn_one_or_more(ctx, args, expr) -> Sequence:
    if not args[0]:
        raise XQueryDynamicError("one-or-more: got an empty sequence", code="FORG0004")
    return args[0]


@builtin("deep-equal", 2)
def _fn_deep_equal(ctx, args, expr) -> Sequence:
    return [deep_equal(args[0], args[1])]


# -- error and trace --------------------------------------------------------------


@builtin("error", 0, 1, 2)
def _fn_error(ctx, args, expr) -> Sequence:
    if not args:
        raise XQueryUserError("error() called")
    message = _string_of(args[0], "error")
    value = args[1] if len(args) > 1 else None
    raise XQueryUserError(message, value=value)


@builtin("trace", min_arity=1)
def _fn_trace(ctx, args, expr) -> Sequence:
    parts = []
    for arg in args:
        parts.append(
            " ".join(
                item.string_value() if is_node(item) else string_value_of_atomic(item)
                for item in arg
            )
        )
    ctx.trace.emit(" ".join(parts))
    return args[-1]


# -- strings ------------------------------------------------------------------------


@builtin("string", 0, 1)
def _fn_string(ctx, args, expr) -> Sequence:
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError("string() with no context item", code="XPDY0002")
        return [_string_of([ctx.item], "string")]
    return [_string_of(args[0], "string")]


@builtin("string-length", 0, 1)
def _fn_string_length(ctx, args, expr) -> Sequence:
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError(
                "string-length() with no context item", code="XPDY0002"
            )
        return [len(_string_of([ctx.item], "string-length"))]
    return [len(_string_of(args[0], "string-length"))]


@builtin("concat", min_arity=2)
def _fn_concat(ctx, args, expr) -> Sequence:
    return ["".join(_string_of(arg, "concat") for arg in args)]


@builtin("string-join", 2)
def _fn_string_join(ctx, args, expr) -> Sequence:
    separator = _string_of(args[1], "string-join")
    pieces = [
        item.string_value() if is_node(item) else string_value_of_atomic(item)
        for item in args[0]
    ]
    return [separator.join(pieces)]


@builtin("substring", 2, 3)
def _fn_substring(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "substring")
    start = _numeric(args[1], "substring")
    if start is None:
        return [""]
    start_round = round(float(start))
    if len(args) > 2:
        length = _numeric(args[2], "substring")
        if length is None:
            return [""]
        end_round = start_round + round(float(length))
    else:
        end_round = len(text) + 1
    begin = max(1, start_round)
    end = max(begin, end_round)
    return [text[begin - 1 : end - 1]]


@builtin("substring-before", 2)
def _fn_substring_before(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "substring-before")
    sep = _string_of(args[1], "substring-before")
    if not sep or sep not in text:
        return [""]
    return [text.split(sep, 1)[0]]


@builtin("substring-after", 2)
def _fn_substring_after(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "substring-after")
    sep = _string_of(args[1], "substring-after")
    if not sep or sep not in text:
        return [""]
    return [text.split(sep, 1)[1]]


@builtin("contains", 2)
def _fn_contains(ctx, args, expr) -> Sequence:
    return [_string_of(args[1], "contains") in _string_of(args[0], "contains")]


@builtin("starts-with", 2)
def _fn_starts_with(ctx, args, expr) -> Sequence:
    return [
        _string_of(args[0], "starts-with").startswith(
            _string_of(args[1], "starts-with")
        )
    ]


@builtin("ends-with", 2)
def _fn_ends_with(ctx, args, expr) -> Sequence:
    return [
        _string_of(args[0], "ends-with").endswith(_string_of(args[1], "ends-with"))
    ]


@builtin("normalize-space", 0, 1)
def _fn_normalize_space(ctx, args, expr) -> Sequence:
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError(
                "normalize-space() with no context item", code="XPDY0002"
            )
        text = _string_of([ctx.item], "normalize-space")
    else:
        text = _string_of(args[0], "normalize-space")
    return [" ".join(text.split())]


@builtin("upper-case", 1)
def _fn_upper_case(ctx, args, expr) -> Sequence:
    return [_string_of(args[0], "upper-case").upper()]


@builtin("lower-case", 1)
def _fn_lower_case(ctx, args, expr) -> Sequence:
    return [_string_of(args[0], "lower-case").lower()]


@builtin("translate", 3)
def _fn_translate(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "translate")
    source = _string_of(args[1], "translate")
    target = _string_of(args[2], "translate")
    table = {}
    for index, char in enumerate(source):
        if char not in table:
            table[char] = target[index] if index < len(target) else None
    out = []
    for char in text:
        if char in table:
            if table[char] is not None:
                out.append(table[char])
        else:
            out.append(char)
    return ["".join(out)]


@builtin("tokenize", 2)
def _fn_tokenize(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "tokenize")
    pattern = _string_of(args[1], "tokenize")
    if not text:
        return []
    return list(re.split(pattern, text))


@builtin("matches", 2)
def _fn_matches(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "matches")
    pattern = _string_of(args[1], "matches")
    return [re.search(pattern, text) is not None]


@builtin("replace", 3)
def _fn_replace(ctx, args, expr) -> Sequence:
    text = _string_of(args[0], "replace")
    pattern = _string_of(args[1], "replace")
    replacement = _string_of(args[2], "replace")
    return [re.sub(pattern, replacement.replace("$", "\\"), text)]


@builtin("codepoints-to-string", 1)
def _fn_codepoints_to_string(ctx, args, expr) -> Sequence:
    atoms = atomize(args[0])
    return ["".join(chr(int(a)) for a in atoms)]


@builtin("string-to-codepoints", 1)
def _fn_string_to_codepoints(ctx, args, expr) -> Sequence:
    return [ord(char) for char in _string_of(args[0], "string-to-codepoints")]


# -- numbers ---------------------------------------------------------------------------


@builtin("number", 0, 1)
def _fn_number(ctx, args, expr) -> Sequence:
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError("number() with no context item", code="XPDY0002")
        return [number_value([ctx.item])]
    return [number_value(args[0])]


@builtin("abs", 1)
def _fn_abs(ctx, args, expr) -> Sequence:
    value = _numeric(args[0], "abs")
    return [] if value is None else [abs(value)]


def _non_finite(value) -> bool:
    """NaN and ±INF pass through fn:floor/ceiling/round unchanged, per the
    spec; feeding them to math.floor/ceil escaped as raw ValueError /
    OverflowError (a fuzz-found crash on ``ceiling(number(()))``)."""
    return isinstance(value, float) and not math.isfinite(value)


@builtin("floor", 1)
def _fn_floor(ctx, args, expr) -> Sequence:
    value = _numeric(args[0], "floor")
    if value is None:
        return []
    return [value if _non_finite(value) else math.floor(value)]


@builtin("ceiling", 1)
def _fn_ceiling(ctx, args, expr) -> Sequence:
    value = _numeric(args[0], "ceiling")
    if value is None:
        return []
    return [value if _non_finite(value) else math.ceil(value)]


@builtin("round", 1)
def _fn_round(ctx, args, expr) -> Sequence:
    value = _numeric(args[0], "round")
    if value is None:
        return []
    if _non_finite(value):
        return [value]
    # XQuery rounds half *up* (towards positive infinity), not banker's.
    return [math.floor(float(value) + 0.5)]


@builtin("sum", 1, 2)
def _fn_sum(ctx, args, expr) -> Sequence:
    atoms = atomize(args[0])
    if not atoms:
        return args[1] if len(args) > 1 else [0]
    total = None
    for atom in atoms:
        value = _coerce_number(atom, "sum")
        if total is None:
            total = value
        else:
            left, right = _promote_pair(total, value)
            total = left + right
    return [total]


@builtin("avg", 1)
def _fn_avg(ctx, args, expr) -> Sequence:
    atoms = atomize(args[0])
    if not atoms:
        return []
    values = [_coerce_number(atom, "avg") for atom in atoms]
    total = values[0]
    for value in values[1:]:
        # mixed float/decimal sequences need the same promotion the
        # arithmetic operators apply (the fuzzer caught the bare + raising
        # TypeError on float + Decimal).
        left, right = _promote_pair(total, value)
        total = left + right
    if isinstance(total, int):
        total = Decimal(total)
    return [total / len(values)]


def _coerce_number(atom: object, what: str) -> object:
    if isinstance(atom, bool):
        raise XQueryTypeError(f"{what}: boolean is not a number")
    if isinstance(atom, (int, float, Decimal)):
        return atom
    if isinstance(atom, UntypedAtomic):
        return _untyped_to_double(atom, what)
    raise XQueryTypeError(f"{what}: {atom!r} is not a number")


def _untyped_to_double(atom: UntypedAtomic, what: str) -> float:
    # the fuzzer caught the bare float() here: a non-numeric untyped value
    # escaped as a raw Python ValueError instead of a spec error code.
    try:
        return float(atom.value)
    except ValueError as exc:
        raise XQueryDynamicError(
            f"{what}: cannot cast {atom.value!r} to xs:double", code="FORG0001"
        ) from exc


@builtin("min", 1)
def _fn_min(ctx, args, expr) -> Sequence:
    return _min_max(args[0], "min", pick_smaller=True)


@builtin("max", 1)
def _fn_max(ctx, args, expr) -> Sequence:
    return _min_max(args[0], "max", pick_smaller=False)


def _min_max(value: Sequence, what: str, pick_smaller: bool) -> Sequence:
    atoms = atomize(value)
    if not atoms:
        return []
    best = None
    for atom in atoms:
        if isinstance(atom, UntypedAtomic):
            atom = _untyped_to_double(atom, what)
        if best is None:
            best = atom
            continue
        try:
            replace = value_compare("lt" if pick_smaller else "gt", atom, best)
        except ComparisonTypeError as exc:
            raise XQueryTypeError(f"{what}: {exc}") from exc
        if replace:
            best = atom
    return [best]


# -- sequences --------------------------------------------------------------------------


@builtin("distinct-values", 1)
def _fn_distinct_values(ctx, args, expr) -> Sequence:
    atoms = atomize(args[0])
    result: Sequence = []
    for atom in atoms:
        if isinstance(atom, UntypedAtomic):
            atom = atom.value
        duplicate = False
        for existing in result:
            try:
                if value_compare("eq", existing, atom):
                    duplicate = True
                    break
            except ComparisonTypeError:
                continue
        if not duplicate:
            result.append(atom)
    return result


@builtin("reverse", 1)
def _fn_reverse(ctx, args, expr) -> Sequence:
    return list(reversed(args[0]))


@builtin("subsequence", 2, 3)
def _fn_subsequence(ctx, args, expr) -> Sequence:
    source = args[0]
    start = _numeric(args[1], "subsequence")
    if start is None:
        return []
    start_round = round(float(start))
    if len(args) > 2:
        length = _numeric(args[2], "subsequence")
        if length is None:
            return []
        end_round = start_round + round(float(length))
    else:
        end_round = len(source) + 1
    begin = max(1, start_round)
    end = max(begin, end_round)
    return source[begin - 1 : end - 1]


@builtin("insert-before", 3)
def _fn_insert_before(ctx, args, expr) -> Sequence:
    source = args[0]
    position = _numeric(args[1], "insert-before")
    inserts = args[2]
    index = max(0, min(len(source), int(position or 1) - 1))
    return source[:index] + inserts + source[index:]


@builtin("remove", 2)
def _fn_remove(ctx, args, expr) -> Sequence:
    source = args[0]
    position = _numeric(args[1], "remove")
    index = int(position or 0)
    if index < 1 or index > len(source):
        return list(source)
    return source[: index - 1] + source[index:]


@builtin("index-of", 2)
def _fn_index_of(ctx, args, expr) -> Sequence:
    atoms = atomize(args[0])
    targets = atomize(args[1])
    if len(targets) != 1:
        raise XQueryTypeError("index-of requires a singleton search value")
    target = targets[0]
    if isinstance(target, UntypedAtomic):
        target = target.value
    result: Sequence = []
    for position, atom in enumerate(atoms, start=1):
        if isinstance(atom, UntypedAtomic):
            atom = atom.value
        try:
            if value_compare("eq", atom, target):
                result.append(position)
        except ComparisonTypeError:
            continue
    return result


@builtin("unordered", 1)
def _fn_unordered(ctx, args, expr) -> Sequence:
    return args[0]


# -- nodes ---------------------------------------------------------------------------------


@builtin("name", 0, 1)
def _fn_name(ctx, args, expr) -> Sequence:
    node = _node_argument(ctx, args, "name")
    if node is None:
        return [""]
    return [node.name or ""]


@builtin("local-name", 0, 1)
def _fn_local_name(ctx, args, expr) -> Sequence:
    node = _node_argument(ctx, args, "local-name")
    if node is None:
        return [""]
    name = node.name or ""
    return [name.split(":")[-1]]


@builtin("node-name", 0, 1)
def _fn_node_name(ctx, args, expr) -> Sequence:
    node = _node_argument(ctx, args, "node-name")
    if node is None or node.name is None:
        return []
    return [node.name]


def _node_argument(ctx, args, what: str) -> Optional[Node]:
    if not args:
        if ctx.item is None:
            raise XQueryDynamicError(f"{what}() with no context item", code="XPDY0002")
        item = ctx.item
    else:
        if not args[0]:
            return None
        if len(args[0]) > 1:
            raise XQueryTypeError(f"{what} requires a singleton node")
        item = args[0][0]
    if not is_node(item):
        raise XQueryTypeError(f"{what} requires a node argument")
    return item


@builtin("root", 0, 1)
def _fn_root(ctx, args, expr) -> Sequence:
    node = _node_argument(ctx, args, "root")
    if node is None:
        return []
    return [node.root()]


@builtin("doc", 1)
def _fn_doc(ctx, args, expr) -> Sequence:
    uri = _string_of(args[0], "doc")
    document = ctx.documents.get(uri)
    if document is None and ctx.collections is not None:
        document = ctx.collections.get(uri)
    if document is None:
        raise XQueryDynamicError(f"document {uri!r} is not available", code="FODC0002")
    return [document]


@builtin("doc-available", 1)
def _fn_doc_available(ctx, args, expr) -> Sequence:
    uri = _string_of(args[0], "doc-available")
    if uri in ctx.documents:
        return [True]
    return [ctx.collections is not None and uri in ctx.collections]


# -- collections + full-text search (repro.collections) ------------------------
#
# These builtins are thin glue over the collection store carried by the
# dynamic context (``CompiledQuery.run(collections=...)``); the logic —
# inverted index, brute-force scan, KWIC extraction — lives in
# :mod:`repro.collections`.  Registering them here (not in that package)
# guarantees they exist whenever the function registry is imported, for
# every backend and for the typed lint pass, with no circular import.


def _collection_store(ctx, what: str):
    store = ctx.collections
    if store is None:
        raise XQueryDynamicError(
            f"{what}: no collection store in the dynamic context", code="FODC0002"
        )
    return store


def _stored_document(ctx, value: Sequence, what: str):
    """Resolve a node (its containing document) or a uri string to a stored doc."""
    store = _collection_store(ctx, what)
    if not value:
        raise XQueryTypeError(f"{what} requires a node or uri argument")
    if len(value) > 1:
        raise XQueryTypeError(f"{what} requires a singleton argument")
    item = value[0]
    if is_node(item):
        return store, item.root()
    return store, store.resolve(string_value_of_atomic(item))


@builtin("collection", 0, 1)
def _fn_collection(ctx, args, expr) -> Sequence:
    store = _collection_store(ctx, "collection")
    uri = _string_of(args[0], "collection") if args else ""
    return [document for _uri, document in store.collection(uri)]


@builtin("ft:search", 1, 2)
def _ft_search(ctx, args, expr) -> Sequence:
    """Documents containing the phrase, ordered by (score desc, uri asc).

    ``ft:search($phrase)`` searches the whole store;
    ``ft:search($collection, $phrase)`` one collection.  The store's
    ``use_index`` flag selects postings vs brute-force scan — the result
    is byte-identical either way (the oracle and E22 pin this).
    """
    store = _collection_store(ctx, "ft:search")
    if len(args) == 2:
        collection = _string_of(args[0], "ft:search")
        phrase = _string_of(args[1], "ft:search")
    else:
        collection = ""
        phrase = _string_of(args[0], "ft:search")
    return [store.resolve(uri) for uri, _score in store.search(collection, phrase)]


@builtin("ft:score", 2)
def _ft_score(ctx, args, expr) -> Sequence:
    """Phrase occurrence count in a node's string value (or a stored uri).

    Purely document-local (no idf), so the score depends on the document
    alone — the property the indexed/brute parity relies on.  A stored
    document is counted by the store (from its postings when indexed).
    """
    from ..collections.fulltext import count_phrase

    phrase = _string_of(args[1], "ft:score")
    if not args[0]:
        return [0]
    if len(args[0]) > 1:
        raise XQueryTypeError("ft:score requires a singleton first argument")
    item = args[0][0]
    store = ctx.collections
    if not is_node(item):
        store = _collection_store(ctx, "ft:score")
        item = store.resolve(string_value_of_atomic(item))
    if store is None:
        return [count_phrase(item.string_value(), phrase)]
    return [store.score(item, phrase)]


@builtin("ft:kwic", 2, 3)
def _ft_kwic(ctx, args, expr) -> Sequence:
    """KWIC snippets (``before«match»after``), one per occurrence."""
    from ..collections.kwic import CHARS_KWIC, kwic_snippets

    phrase = _string_of(args[1], "ft:kwic")
    width = CHARS_KWIC
    if len(args) == 3:
        number = _numeric(args[2], "ft:kwic")
        if number is not None:
            width = max(0, int(number))
    if not args[0]:
        return []
    if len(args[0]) > 1:
        raise XQueryTypeError("ft:kwic requires a singleton first argument")
    item = args[0][0]
    if is_node(item):
        text = item.string_value()
    else:
        store = _collection_store(ctx, "ft:kwic")
        text = store.resolve(string_value_of_atomic(item)).string_value()
    return list(kwic_snippets(text, phrase, width))


@builtin("ft:uri", 1)
def _ft_uri(ctx, args, expr) -> Sequence:
    """The store URI of the document containing the argument node."""
    store, document = _stored_document(ctx, args[0], "ft:uri")
    return [store.uri_of(document)]
