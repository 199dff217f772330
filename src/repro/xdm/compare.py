"""Comparison semantics: value comparisons, general comparisons, deep-equal.

The paper's fourth syntactic quirk lives here: "$x=$y is true if $x and $y
are sequences with at least one element in common: 1 = (1,2,3), and
(1,2,3)=3, but, of course, it is not the case that 1=3."  General
comparisons (``=``, ``!=``, ``<``...) are existential over atomized
operands; value comparisons (``eq``, ``ne``, ``lt``...) demand singletons.
"""

from __future__ import annotations

from decimal import Decimal
from typing import List, Optional

from .items import UntypedAtomic, untyped_to_double
from .nodes import AttributeNode, ElementNode, Node, TextNode
from .sequence import atomize


class ComparisonTypeError(TypeError):
    """Operands cannot be compared (engine maps this to XPTY0004)."""


_NUMERIC = (int, float, Decimal)


def _promote_pair(left: object, right: object) -> tuple:
    """Promote two atomic values to a common comparable type.

    Untyped data compares as string against strings, as number against
    numbers, and as the other operand's type in general — the draft rule
    the paper's project relied on in untyped mode.
    """
    if isinstance(left, UntypedAtomic) and isinstance(right, UntypedAtomic):
        return left.value, right.value
    if isinstance(left, UntypedAtomic):
        return _promote_untyped(left, right), right
    if isinstance(right, UntypedAtomic):
        return left, _promote_untyped(right, left)
    return left, right


def _promote_untyped(untyped: UntypedAtomic, other: object) -> object:
    if isinstance(other, bool):
        text = untyped.value.strip()
        if text in ("true", "1"):
            return True
        if text in ("false", "0"):
            return False
        raise ComparisonTypeError(f"cannot compare {untyped.value!r} with a boolean")
    if isinstance(other, _NUMERIC) and not isinstance(other, bool):
        try:
            return untyped_to_double(untyped)
        except ValueError as exc:
            raise ComparisonTypeError(
                f"cannot compare {untyped.value!r} with a number"
            ) from exc
    if isinstance(other, str):
        return untyped.value
    raise ComparisonTypeError(f"cannot compare {untyped.value!r} with {other!r}")


def _comparable(left: object, right: object) -> tuple:
    left, right = _promote_pair(left, right)
    left_is_num = isinstance(left, _NUMERIC) and not isinstance(left, bool)
    right_is_num = isinstance(right, _NUMERIC) and not isinstance(right, bool)
    if left_is_num and right_is_num:
        if isinstance(left, Decimal) and isinstance(right, float):
            return float(left), right
        if isinstance(right, Decimal) and isinstance(left, float):
            return left, float(right)
        return left, right
    if isinstance(left, bool) and isinstance(right, bool):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    raise ComparisonTypeError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def value_compare(op: str, left: object, right: object) -> bool:
    """A value comparison (``eq ne lt le gt ge``) on two atomic items."""
    left, right = _comparable(left, right)
    if op == "eq":
        return left == right
    if op == "ne":
        return left != right
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    if op == "gt":
        return left > right
    if op == "ge":
        return left >= right
    raise ValueError(f"unknown value comparison operator: {op}")


_GENERAL_TO_VALUE = {
    "=": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


def general_compare(op: str, left: List[object], right: List[object]) -> bool:
    """A general comparison: existential over the atomized operands.

    ``(1,2,3) = 3`` is true; ``(1,2) != (1,2)`` is also true (1 != 2), which
    is exactly the outlandishness the paper describes.  For general
    comparisons, untyped operands compared with numbers become numbers and
    otherwise become strings.
    """
    value_op = _GENERAL_TO_VALUE[op]
    left_atoms = atomize(left)
    right_atoms = atomize(right)
    for left_atom in left_atoms:
        for right_atom in right_atoms:
            try:
                if value_compare(value_op, left_atom, right_atom):
                    return True
            except ComparisonTypeError:
                raise
    return False


def deep_equal(left: List[object], right: List[object]) -> bool:
    """fn:deep-equal over two sequences."""
    if len(left) != len(right):
        return False
    return all(_deep_equal_item(a, b) for a, b in zip(left, right))


def _deep_equal_item(left: object, right: object) -> bool:
    if isinstance(left, Node) != isinstance(right, Node):
        return False
    if not isinstance(left, Node):
        try:
            return value_compare("eq", left, right)
        except ComparisonTypeError:
            return False
    return _deep_equal_node(left, right)


def _deep_equal_node(left: Node, right: Node) -> bool:
    if left.kind != right.kind:
        return False
    if isinstance(left, AttributeNode):
        return left.name == right.name and left.value == right.value
    if isinstance(left, TextNode):
        return left.text == right.text
    if isinstance(left, ElementNode) and isinstance(right, ElementNode):
        if left.name != right.name:
            return False
        left_attrs = {a.name: a.value for a in left.attributes}
        right_attrs = {a.name: a.value for a in right.attributes}
        if left_attrs != right_attrs:
            return False
        left_kids = _comparable_children(left)
        right_kids = _comparable_children(right)
        if len(left_kids) != len(right_kids):
            return False
        return all(_deep_equal_node(a, b) for a, b in zip(left_kids, right_kids))
    # documents compare by children; comments/PIs by text
    left_kids = _comparable_children(left)
    right_kids = _comparable_children(right)
    if left_kids or right_kids:
        if len(left_kids) != len(right_kids):
            return False
        return all(_deep_equal_node(a, b) for a, b in zip(left_kids, right_kids))
    return left.string_value() == right.string_value()


def _comparable_children(node: Node) -> List[Node]:
    """Children that participate in deep-equal (comments and PIs do not)."""
    return [
        child
        for child in node.children
        if child.kind in ("element", "text")
    ]


def nodes_before(left: Node, right: Node) -> Optional[bool]:
    """Document-order ``<<`` on two nodes; None if in different trees."""
    left_key = left.order_key()
    right_key = right.order_key()
    if left_key[0] != right_key[0]:
        return None
    return left_key < right_key
