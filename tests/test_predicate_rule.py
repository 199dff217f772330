"""One predicate rule: every fast predicate runs through one function.

The closure compiler and the algebra executor classify each predicate with
``repro.xquery.compiler.classify_predicate`` and filter candidates through
``run_predicates``: positional slices, attribute filters over literals,
the calculus property filter, ``@a``/``name(.)`` value comparisons whose
right side runs once, and the generic loop (a compiled EBV test per
candidate for booleans and comparisons).  The treewalk is the reference.

* The three-engine pin runs every shape over five bases (elements;
  element, text and attribute nodes; atomics; atomics and nodes; empty)
  at the top level (a ``Scan`` or ``Select`` in ``explain``: the
  executor) and inside a typed ``local:`` function (which the algebra
  hands to the compiler whole), and every shape as a hash-join residual,
  in the ``last`` and ``keep`` duplicate-attribute modes.  Node
  identities, their order, the error (class, code, message, location)
  and the ``trace()`` messages must be the treewalk's.
* The memo row: a residual that reads the tuple's variable is never
  replayed from the join's probe memo.
* The fast pin counts every run of a predicate's own closure (or its
  compiled EBV) per candidate: for each fast shape over elements it must
  read 0 on the executor and on the compiler.
"""

import functools

import pytest

from repro.xdm import Node
from repro.xmlio import parse_document
from repro.xquery import EngineConfig, TraceLog, XQueryEngine, ast
from repro.xquery.compiler import Compiler
from repro.xquery.errors import XQueryError

MODES = ("last", "keep")

#: root elements built under the mode: in ``keep`` mode the first carries
#: two ``k`` attributes (copies into a parent keep only one).
ELEMENTS = (
    '(element a { attribute j { "1" }, attribute k { "1" }, attribute k { "2" }, "x" },'
    ' <a j="1" k="1">x<b/></a>, <a j="1" k="2"/>, <b j="1" k="2"/>, <c/>,'
    ' <a j="2" k="3"><property name="p" type="integer">5</property></a>,'
    ' <a j="1" k="x"><property name="p">abc</property></a>)'
)
DOCUMENT = '<r>t<a k="1">x</a><b/><c k="2">y<a k="1"/></c></r>'

#: base -> (path with the predicate at {P}, what explain shows at the top)
BASES = {
    "elements": ("$e/self::*{P}", "Scan("),
    "nodes": ("($e, $d/r/node(), $d/r/*/@k){P}", "Select"),
    "atomics": ('(1, "a", 2.5e0, 2){P}', "Select"),
    "mixed": ('($e, 3, "x"){P}', "Select"),
    "empty": ("$e/self::zz{P}", "Scan("),
}

PROPERTY_EQ = (
    '[property[@name eq "p"] and (if (property[@name eq "p"]/@type = ("integer", "float"))'
    ' then number(string(property[@name eq "p"])) eq number("5")'
    ' else if (property[@name eq "p"]/@type eq "boolean")'
    ' then (string(property[@name eq "p"]) eq "true") eq false()'
    ' else string(property[@name eq "p"]) eq "5")]'
)
PROPERTY_CONTAINS = '[contains(string(property[@name eq "p"]), "b")]'

#: the shapes each engine decides without a per-candidate closure run
FAST = (
    "[2]",
    "[2e0]",
    "[1.5e0]",
    "[position() gt 1]",
    "[position() le 2]",
    "[2 ge position()]",
    "[position() = 2]",
    "[last()]",
    '[@k eq "1"]',
    '["2" eq @k]',
    '[@k = ("1", "3")]',
    "[@k = ()]",
    "[@k]",
    PROPERTY_EQ,
    PROPERTY_CONTAINS,
    "[@k eq $v]",
    "[@k ne $v]",
    "[@k lt $v]",
    '[@k eq string(1)]',
    "[name(.) eq $v]",
    '[name() ne "a"]',
    '[name(.) eq "b"]',
)

SHAPES = FAST + (
    # @a / name(.) comparisons that raise once the right side runs
    "[@k eq $n]",
    "[@k eq ($v, $v)]",
    "[@k eq ()]",
    "[@k eq (1 idiv 0)]",
    "[name(.) eq $n]",
    '[name(.) eq ("a", "b")]',
    "[name(.) eq (1 idiv 0)]",
    # right sides the shapes must not run once: traced, failing, focus-reading
    '[@k eq trace($v, "r")]',
    '[name(.) eq trace("a", "n")]',
    "[@k eq error()]",
    "[@k eq string(.)]",
    "[name(.) eq name(.)]",
    # the generic loop's EBV test
    '[@k eq "1" or @j]',
    "[@k = $v]",
    '[trace(@k, "b") = "1"]',
    "[@k is @k]",
    # the generic loop
    "[string(@k)]",
    "[$n]",
    "[count(@k)]",
    '[trace(@k, "g")]',
    "[.]",
    # more than one predicate: positions renumber, filters run in order
    # (in keep mode too, where `@k eq` raises on two k attributes)
    '[@j][@k eq "1"]',
    '[@x][@k eq "1"]',
    "[@k][2]",
    '[2][@k eq $v]',
)

TYPED = (
    "declare function local:f($e as item()*, $d as node(), $v as xs:string,"
    " $n as xs:integer) as item()* {{ {path} }}; local:f($e, $d, $v, $n)"
)
JOIN = "for $x in $e/self::a for $y in $e/self::a[@j eq $x/@j]{P} return ($x, $y)"


@functools.lru_cache(maxsize=None)
def _engine(mode):
    return XQueryEngine(EngineConfig(duplicate_attribute_mode=mode, compile_cache_size=0))


@functools.lru_cache(maxsize=None)
def _variables(mode):
    return {
        "e": _engine(mode).compile(ELEMENTS).run(),
        "d": parse_document(DOCUMENT),
        "v": "1",
        "n": 1,
    }


@functools.lru_cache(maxsize=None)
def _queries(mode, shape, base):
    """The case as ``(reference and executor query, compiler query)``."""
    engine = _engine(mode)
    if base == "join":
        return engine.compile(JOIN.format(P=shape)), None
    path = BASES[base][0].format(P=shape)
    return engine.compile(path), engine.compile(TYPED.format(path=path))


def _outcome(query, backend, variables):
    trace = TraceLog()
    try:
        result = query.run(backend=backend, variables=variables, trace=trace)
    except XQueryError as error:
        found = (type(error).__name__, error.code, error.bare_message, error.line, error.column)
        return ("error", *found), trace.messages
    return ("ok", [id(i) if isinstance(i, Node) else i for i in result]), trace.messages


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("base", (*BASES, "join"))
def test_every_predicate_agrees_on_three_engines(mode, base):
    variables = _variables(mode)
    for shape in SHAPES:
        plain, typed = _queries(mode, shape, base)
        reference = _outcome(plain, "treewalk", variables)
        assert _outcome(plain, "algebra", variables) == reference, ("executor", shape)
        if typed is not None:
            # the same path at another column: only the location may move
            typed_reference = _outcome(typed, "treewalk", variables)
            assert typed_reference[0][:4] == reference[0][:4], shape
            assert typed_reference[1] == reference[1], shape
            assert _outcome(typed, "algebra", variables) == typed_reference, ("compiler", shape)


@pytest.mark.parametrize("base", (*BASES, "join"))
def test_every_predicate_runs_on_the_engine_it_names(base):
    for shape in SHAPES:
        plain, typed = _queries("last", shape, base)
        text = plain.explain()["text"]
        if base == "join":
            assert "HashJoin $y on @j eq probe" in text, shape
            continue
        assert text.startswith(BASES[base][1]), shape
        assert "[typed signature]" in typed.explain()["text"], shape


def test_a_residual_reading_the_tuple_is_never_replayed():
    # every $x with j="1" shares one probe key, but their @k differ
    query = _engine("last").compile(JOIN.format(P="[@k eq $x/@k]"))
    assert "HashJoin $y on @j eq probe[generic predicate" in query.explain()["text"]
    variables = _variables("last")
    reference = _outcome(query, "treewalk", variables)
    assert reference[0][0] == "ok" and len(reference[0][1]) == 14
    assert _outcome(query, "algebra", variables) == reference


# -- the fast pin ---------------------------------------------------------------


def _outer_predicate(module):
    """The first predicate of the first step or filter that has one."""
    found = []
    roots = [module.body] + [decl.body for decl in ast.function_table(module).values()]
    for root in roots:
        ast.walk(root, lambda node: found.extend(getattr(node, "predicates", ()) or ()))
    return found[0]


def _spy_per_candidate_runs(monkeypatch, target):
    """Count each run of *target*'s closure, of its ``ebv`` and of its
    compiled EBV: the per-candidate work of the generic loop."""
    runs = []

    def counted(run):
        if getattr(run, "spied", False):
            return run

        def spied(ctx):
            runs.append(ctx.position)
            return run(ctx)

        spied.spied = True
        return spied

    compile_, compile_ebv = Compiler.compile, Compiler._compile_ebv

    def compile_spied(self, expr):
        thunk = compile_(self, expr)
        if expr is not target:
            return thunk
        spied = counted(thunk)
        if hasattr(thunk, "ebv"):
            spied.ebv = counted(thunk.ebv)
        return spied

    def compile_ebv_spied(self, expr, *args):
        test = compile_ebv(self, expr, *args)
        return counted(test) if expr is target else test

    monkeypatch.setattr(Compiler, "compile", compile_spied)
    monkeypatch.setattr(Compiler, "_compile_ebv", compile_ebv_spied)
    return runs


def _spied_runs(monkeypatch, form, shape):
    """Per-candidate runs of *shape* over ``$e``'s elements on one engine,
    whose result must be the treewalk's."""
    path = f"$e/self::*{shape}"
    query = _engine("last").compile(path if form == "executor" else TYPED.format(path=path))
    runs = _spy_per_candidate_runs(monkeypatch, _outer_predicate(query.module))
    variables = dict(_variables("last"), v="a" if "name" in shape else "1")
    reference = _outcome(query, "treewalk", variables)
    assert _outcome(query, "algebra", variables) == reference, (form, shape)
    return runs


@pytest.mark.parametrize("form", ["executor", "compiler"])
@pytest.mark.parametrize("shape", FAST)
def test_fast_shapes_run_no_per_candidate_loop(monkeypatch, form, shape):
    assert _spied_runs(monkeypatch, form, shape) == []


@pytest.mark.parametrize("form", ["executor", "compiler"])
@pytest.mark.parametrize("shape", ["[string(@k)]", '[@k eq "1" or @j]'])
def test_the_spy_sees_a_per_candidate_loop(monkeypatch, form, shape):
    # the generic loop runs its closure or its EBV test once per element
    # of $e (each the one candidate of its self:: step)
    assert _spied_runs(monkeypatch, form, shape) == [1] * 7
