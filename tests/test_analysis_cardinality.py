"""The occurrence-inference lattice: Card intervals and the analyzer."""

from repro.xquery import parse_query
from repro.xquery.analysis import (
    EMPTY,
    ONE,
    OPT,
    PLUS,
    STAR,
    Binding,
    Card,
    TypeAnalyzer,
)
from repro.xquery.analysis.cardinality import (
    concat,
    from_sequence_type,
    join,
    module_environments,
    positional_index,
)
from repro.xdm import ItemType, SequenceType


def card_of(source, env=None):
    module = parse_query(source)
    analyzer = TypeAnalyzer(module)
    body_env, _ = module_environments(module, analyzer)
    if env:
        body_env.update(env)
    return analyzer.card(module.body, body_env)


class TestLattice:
    def test_concat_adds_intervals(self):
        assert concat(ONE, ONE) == Card(2, 2)
        assert concat(OPT, ONE) == Card(1, 2)
        assert concat(STAR, ONE) == Card(1, None)
        assert concat(EMPTY, EMPTY) == EMPTY

    def test_join_is_least_upper_bound(self):
        assert join(ONE, EMPTY) == OPT
        assert join(ONE, STAR) == STAR
        assert join(Card(2, 2), Card(5, 5)) == Card(2, 5)
        assert join(PLUS, EMPTY) == STAR

    def test_predicates(self):
        assert EMPTY.can_be_empty and not ONE.can_be_empty
        assert ONE.is_exactly_one and not OPT.is_exactly_one

    def test_from_sequence_type(self):
        item = ItemType.item()
        assert from_sequence_type(SequenceType(item)) == ONE
        assert from_sequence_type(SequenceType(item, "?")) == OPT
        assert from_sequence_type(SequenceType(item, "*")) == STAR
        assert from_sequence_type(SequenceType(item, "+")) == PLUS
        assert from_sequence_type(SequenceType.empty()) == EMPTY
        assert from_sequence_type(None) == STAR


class TestExpressionCards:
    def test_literals_and_empty(self):
        assert card_of("42") == ONE
        assert card_of("()") == EMPTY

    def test_sequence_concatenation_is_exact(self):
        assert card_of("(1, 2, 3)") == Card(3, 3)

    def test_literal_range(self):
        assert card_of("1 to 4") == Card(4, 4)
        assert card_of("5 to 1") == EMPTY

    def test_if_joins_branches(self):
        assert card_of("if (1 gt 0) then 1 else ()") == OPT
        assert card_of("if (1 gt 0) then (1,2) else (3,4)") == Card(2, 2)

    def test_flwor_multiplies(self):
        assert card_of("for $x in (1,2,3) return $x") == Card(3, 3)
        assert card_of("for $x in (1,2) return ($x, $x)") == Card(4, 4)

    def test_where_makes_lower_bound_zero(self):
        assert card_of("for $x in (1,2) where $x gt 1 return $x") == Card(0, 2)

    def test_let_binding_card_flows(self):
        assert card_of("let $p := (1,2) return $p") == Card(2, 2)

    def test_positional_filter_is_at_most_one(self):
        assert card_of("(1,2,3)[2]") == Card(0, 1)

    def test_builtin_tables(self):
        assert card_of("count((1,2))") == ONE
        assert card_of("avg((1,2))") == OPT
        assert card_of("one-or-more((1,2))") == PLUS

    def test_declared_return_type_is_trusted(self):
        source = (
            'declare function local:f($x) as item() { $x };'
            "local:f(1)"
        )
        assert card_of(source) == ONE

    def test_unknown_variable_is_star(self):
        module = parse_query("declare variable $v external; $v")
        analyzer = TypeAnalyzer(module)
        env, _ = module_environments(module, analyzer)
        assert analyzer.card(module.body, env) == STAR

    def test_declared_variable_type_is_trusted(self):
        source = "declare variable $v as item() external; $v"
        assert card_of(source) == ONE

    def test_value_comparison_propagates_emptiness(self):
        assert card_of("1 eq 1") == ONE
        assert card_of("() eq 1") == Card(0, 1)


class TestPositionalIndex:
    def test_literal_integer(self):
        module = parse_query("(1,2)[2]")
        predicate = module.body.predicates[0]
        assert positional_index(predicate, {}) == 2

    def test_position_eq(self):
        module = parse_query("(1,2)[position() = 2]")
        assert positional_index(module.body.predicates[0], {}) == 2

    def test_boolean_predicate_is_not_positional(self):
        module = parse_query("(1,2)[. gt 1]")
        assert positional_index(module.body.predicates[0], {}) is None


class TestAttributeTracking:
    def test_computed_attribute_is_tracked(self):
        module = parse_query("attribute x { 1 }")
        analyzer = TypeAnalyzer(module)
        assert analyzer.may_construct_attribute(module.body, {})
        assert analyzer.static_attribute_name(module.body, {}) == "x"

    def test_let_bound_attribute_is_tracked(self):
        module = parse_query("let $a := attribute x { 1 } return $a")
        analyzer = TypeAnalyzer(module)
        binding = analyzer.binding_of(module.body.clauses[0].value, {})
        assert binding.may_be_attribute
        assert binding.attribute_name == "x"

    def test_element_is_not_an_attribute(self):
        module = parse_query("<a/>")
        analyzer = TypeAnalyzer(module)
        assert not analyzer.may_construct_attribute(module.body, {})

    def test_attribute_axis_path_is_tracked(self):
        module = parse_query("declare variable $d external; $d/attribute::x")
        analyzer = TypeAnalyzer(module)
        env = {"d": Binding()}
        assert analyzer.may_construct_attribute(module.body, env)
