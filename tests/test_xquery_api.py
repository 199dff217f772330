"""Tests for the engine facade: compilation, configs, serialization."""

import pytest

from repro.querycalc import XQueryCalculusBackend, parse_query_xml, run_query
from repro.workloads import make_it_model
from repro.xdm import ElementNode
from repro.xquery import (
    CompiledQuery,
    EngineConfig,
    XQueryEngine,
    XQueryStaticError,
    serialize_result,
)


class TestEngineConstruction:
    def test_default_config(self):
        engine = XQueryEngine()
        assert engine.config.optimize is True
        assert engine.config.trace_is_dead_code is False

    def test_keyword_flags(self):
        engine = XQueryEngine(optimize=False, galax_diagnostics=True)
        assert engine.config.optimize is False
        assert engine.config.galax_diagnostics is True

    def test_config_object(self):
        config = EngineConfig(duplicate_attribute_mode="first")
        assert XQueryEngine(config).config is config

    def test_config_and_flags_conflict(self):
        with pytest.raises(TypeError):
            XQueryEngine(EngineConfig(), optimize=False)

    def test_unknown_duplicate_attribute_mode_rejected_at_config_time(self):
        # fuzz corpus headers reach this field through EngineConfig(**config):
        # a misspelt mode fails instead of quietly behaving as "last".
        with pytest.raises(ValueError, match="'last', 'first', 'keep', or 'error', not 'frist'"):
            EngineConfig(duplicate_attribute_mode="frist")
        for mode in ("last", "first", "keep", "error"):
            assert EngineConfig(duplicate_attribute_mode=mode).duplicate_attribute_mode == mode


class TestCompiledQueries:
    def test_compile_once_run_many(self):
        engine = XQueryEngine()
        query = engine.compile("$x * $x")
        assert isinstance(query, CompiledQuery)
        assert query.run(variables={"x": 3}) == [9]
        assert query.run(variables={"x": 5}) == [25]

    def test_external_variable_names(self):
        engine = XQueryEngine()
        query = engine.compile(
            "declare variable $a external; declare variable $b := 1; $a + $b"
        )
        assert query.external_variable_names == ["a"]

    def test_optimizer_stats_exposed(self):
        engine = XQueryEngine()
        query = engine.compile("let $dead := 1 return 2 + 3")
        assert query.optimizer_stats.dead_lets_removed == 1
        assert query.optimizer_stats.folded_constants == 1

    def test_no_stats_when_not_optimizing(self):
        engine = XQueryEngine(optimize=False)
        assert engine.compile("1").optimizer_stats is None

    def test_declared_variable_type_enforced(self):
        engine = XQueryEngine()
        query = engine.compile(
            "declare variable $n as xs:integer external; $n"
        )
        with pytest.raises(XQueryStaticError):
            query.run(variables={"n": "not an int"})

    def test_duplicate_variable_declaration(self):
        engine = XQueryEngine()
        with pytest.raises(XQueryStaticError) as info:
            engine.compile(
                "declare variable $x := 1; declare variable $x := 2; $x"
            )
        assert info.value.code == "XQST0049"

    def test_scalar_variable_coercion(self):
        engine = XQueryEngine()
        assert engine.evaluate("$s", variables={"s": "plain"}) == ["plain"]
        assert engine.evaluate("$t", variables={"t": (1, 2)}) == [1, 2]

    def test_node_variable(self):
        engine = XQueryEngine()
        node = ElementNode("x")
        assert engine.evaluate("$n", variables={"n": node}) == [node]


class TestSerializeResult:
    def test_atomics_space_separated(self):
        assert serialize_result([1, 2, "three"]) == "1 2 three"

    def test_nodes_serialized(self):
        assert serialize_result([ElementNode("a"), ElementNode("b")]) == "<a/><b/>"

    def test_mixed(self):
        assert serialize_result([1, ElementNode("a"), 2]) == "1<a/>2"

    def test_empty(self):
        assert serialize_result([]) == ""

    def test_boolean_rendering(self):
        assert serialize_result([True, False]) == "true false"


class TestUntypedMode:
    def test_type_checks_can_be_disabled(self):
        # the paper "used XQuery in the untyped mode": with
        # type_check_calls off, declared types are not enforced.
        source = (
            "declare function local:f($x as xs:integer) { $x }; local:f('s')"
        )
        strict = XQueryEngine()
        relaxed = XQueryEngine(type_check_calls=False)
        from repro.xquery import XQueryTypeError

        with pytest.raises(XQueryTypeError):
            strict.evaluate(source)
        assert relaxed.evaluate(source) == ["s"]


class TestCoerceSequence:
    """Host-value coercion: lists and tuples must flatten identically."""

    def query(self):
        return XQueryEngine().compile("declare variable $v external; $v")

    def test_flat_list_and_tuple_agree(self):
        assert self.query().run(variables={"v": [1, 2, 3]}) == [1, 2, 3]
        assert self.query().run(variables={"v": (1, 2, 3)}) == [1, 2, 3]

    def test_nested_list_and_tuple_agree(self):
        nested_list = [1, [2, [3]], []]
        nested_tuple = (1, (2, (3,)), ())
        assert self.query().run(variables={"v": nested_list}) == [1, 2, 3]
        assert self.query().run(variables={"v": nested_tuple}) == [1, 2, 3]

    def test_mixed_nesting_agrees(self):
        assert self.query().run(variables={"v": [1, (2, [3])]}) == [1, 2, 3]
        assert self.query().run(variables={"v": (1, [2, (3,)])}) == [1, 2, 3]

    def test_scalar_is_singleton(self):
        assert self.query().run(variables={"v": 7}) == [7]
        assert self.query().run(variables={"v": "s"}) == ["s"]


class TestCompileCache:
    def test_hit_and_miss_counting(self):
        engine = XQueryEngine()
        first = engine.compile("1 + 1")
        again = engine.compile("1 + 1")
        other = engine.compile("2 + 2")
        assert again is first
        assert other is not first
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2
        assert info["currsize"] == 2

    def test_bounded_lru_eviction(self):
        engine = XQueryEngine(compile_cache_size=2)
        a = engine.compile("1")
        engine.compile("2")
        engine.compile("1")  # refresh a's recency
        engine.compile("3")  # evicts "2"
        assert engine.compile("1") is a
        assert engine.cache_info()["currsize"] == 2
        before = engine.cache_info()["misses"]
        engine.compile("2")  # was evicted: a fresh miss
        assert engine.cache_info()["misses"] == before + 1

    def test_cache_disabled_by_size_zero(self):
        engine = XQueryEngine(compile_cache_size=0)
        first = engine.compile("1 + 1")
        assert engine.compile("1 + 1") is not first
        assert engine.cache_info() == {
            "hits": 0, "misses": 0, "races": 0, "currsize": 0, "maxsize": 0,
        }

    def test_config_mutation_invalidates(self):
        engine = XQueryEngine()
        optimized = engine.compile("1 + 2")
        engine.config.optimize = False
        raw = engine.compile("1 + 2")
        assert raw is not optimized
        assert raw.optimizer_stats is None

    def test_cache_clear(self):
        engine = XQueryEngine()
        engine.compile("1")
        engine.compile("1")
        engine.cache_clear()
        assert engine.cache_info() == {
            "hits": 0, "misses": 0, "races": 0, "currsize": 0, "maxsize": 128,
        }


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        query = XQueryEngine().compile("1")
        with pytest.raises(ValueError):
            query.run(backend="bytecode")

    def test_unknown_backend_rejected_at_config_time(self):
        # a stale name fails where the config is built, not at first run.
        with pytest.raises(ValueError, match="'treewalk', 'algebra'"):
            EngineConfig(backend="closures")

    def test_config_backend_is_default(self):
        engine = XQueryEngine(backend="algebra")
        query = engine.compile("2 + 2")
        assert query.run() == [4]
        assert query._algebra is not None

    def test_treewalk_never_builds_closures(self):
        query = XQueryEngine().compile("2 + 2")
        assert query.run() == [4]
        assert query._algebra is None

    def test_lowered_calculus_plan_never_builds_the_fallback_compiler(self):
        model = make_it_model(scale=3)
        engine = XQueryEngine(backend="algebra")
        calculus = XQueryCalculusBackend(model, engine=engine)
        query = parse_query_xml(
            '<query><start type="User"/><follow relation="uses"/>'
            '<collect sort-by="label"/></query>'
        )
        expected = [node.id for node in run_query(query, model)]
        for _ in range(2):
            assert [node.id for node in calculus.run(query)] == expected
        compiled = engine.compile(calculus.compile_to_xquery(query))
        assert compiled._algebra is not None  # the runs above used this plan
        assert not compiled.algebra.trivial
        assert compiled.algebra._compiler is None

    def test_trivial_body_builds_the_fallback_compiler_once(self):
        engine = XQueryEngine(backend="algebra")
        query = engine.compile(
            "declare variable $n := 3;"
            " <r>{ for $i in 1 to $n return $i * $i }</r>"
        )
        assert serialize_result(query.run()) == "<r>1 4 9</r>"
        program = query.algebra
        assert program.trivial
        compiler = program._compiler
        assert compiler is not None
        # the compiler's memo is the program's one closure memo
        thunks = dict(compiler._thunks)
        assert len(thunks) == 2  # the declared global and the whole body
        assert serialize_result(query.run()) == "<r>1 4 9</r>"
        assert program._compiler is compiler
        assert compiler._thunks == thunks
