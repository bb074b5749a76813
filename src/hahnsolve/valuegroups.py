"""Totally ordered abelian value groups and values with an adjoined top element.

Built-in groups: integers, rationals, and lexicographic pairs (left dominant).
Group elements are plain Python values (``int``, ``Fraction``, nested tuples)
whose native ordering is the group order: tuples compare lexicographically,
left dominant, exactly as ``LexPair`` requires.  Every comparison in the
package uses the native operators, so the contract asks for no comparison.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from .errors import ParseError
from .fields import _Q_ZERO, _q_add, _q_neg, _q_of, _q_str, _split_top_level, parse_number

GroupElement = Any


class ValueGroup(ABC):
    """Ordered abelian group contract: zero, add and neg plus a text round-trip.

    Elements must be hashable and natively ordered by the group order.
    """

    name: str

    @property
    @abstractmethod
    def zero(self) -> GroupElement: ...

    @abstractmethod
    def add(self, a: GroupElement, b: GroupElement) -> GroupElement: ...

    @abstractmethod
    def neg(self, a: GroupElement) -> GroupElement: ...

    @abstractmethod
    def parse(self, text: str) -> GroupElement: ...

    @abstractmethod
    def format(self, a: GroupElement) -> str: ...

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.add(a, self.neg(b))

    def __repr__(self):
        return self.name


def _cmp(a, b) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


@dataclass(frozen=True, repr=False)
class IntegerGroup(ValueGroup):
    name = "int"

    @property
    def zero(self):
        return 0

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    format = staticmethod(str)

    # unused; perfbench/tracer.py still counts it by name (COUNT_ONLY)
    def compare(self, a, b):
        return _cmp(a, b)

    def parse(self, text):
        return parse_number(text, "integer exponent", integer=True)


@dataclass(frozen=True, repr=False)
class RationalGroup(ValueGroup):
    """Exponents are ``Fraction``s; sums, negatives and text come from the
    fields module's rational kernel, as QQ's do."""

    name = "rat"

    @property
    def zero(self):
        return _Q_ZERO

    add = staticmethod(_q_add)
    neg = staticmethod(_q_neg)
    format = staticmethod(_q_str)

    # unused; perfbench/tracer.py still counts it by name (COUNT_ONLY)
    def compare(self, a, b):
        return _cmp(a, b)

    def parse(self, text):
        return _q_of(parse_number(text, "rational exponent"))


@dataclass(frozen=True, repr=False)
class LexPair(ValueGroup):
    """Product of two value groups ordered lexicographically, left dominant."""

    left: ValueGroup
    right: ValueGroup

    @property
    def name(self):
        return f"lex({self.left.name},{self.right.name})"

    @property
    def zero(self):
        return (self.left.zero, self.right.zero)

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    # unused; perfbench/tracer.py still counts it by name (COUNT_ONLY)
    def compare(self, a, b):
        return _cmp(a, b)

    def parse(self, text):
        text = text.strip()
        parts = _split_top_level(text[1:-1], ",") if text[:1] + text[-1:] == "()" else []
        if len(parts) != 2:
            raise ParseError(f"lex pair must be (left,right): {text!r}")
        return (self.left.parse(parts[0]), self.right.parse(parts[1]))

    def format(self, a):
        return f"({self.left.format(a[0])},{self.right.format(a[1])})"


INTEGERS = IntegerGroup()
RATIONALS = RationalGroup()
LEX2 = LexPair(INTEGERS, INTEGERS)


@dataclass(frozen=True, slots=True)
class OrderedValue:
    """An element of a value group, or the adjoined top element.

    ``finite`` is ``None`` exactly for the top element, which compares strictly
    greater than every group value.  The order operators are native: they
    compare the ``finite`` payloads directly, with ``None`` on top.  The class
    is slotted, with no ``__dict__``; ``Series.valuation`` builds one per
    correction step through ``_set_finite``, its slot's ``__set__``.
    """

    finite: GroupElement | None = None

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __lt__(self, other: "OrderedValue") -> bool:
        a, b = self.finite, other.finite
        return a is not None and (b is None or a < b)

    def __le__(self, other: "OrderedValue") -> bool:
        a, b = self.finite, other.finite
        return b is None or (a is not None and a <= b)

    def __gt__(self, other: "OrderedValue") -> bool:
        a, b = self.finite, other.finite
        return b is not None and (a is None or a > b)

    def __ge__(self, other: "OrderedValue") -> bool:
        a, b = self.finite, other.finite
        return a is None or (b is not None and a >= b)

    def __repr__(self):
        return "OrderedValue(inf)" if self.is_infinite else f"OrderedValue({self.finite!r})"


INFINITY = OrderedValue(None)
_set_finite = OrderedValue.finite.__set__


def ov_compare(x: OrderedValue, y: OrderedValue) -> int:
    """Total order on values with the top element maximal: -1, 0 or +1."""
    if x.is_infinite:
        return 0 if y.is_infinite else 1
    if y.is_infinite:
        return -1
    return _cmp(x.finite, y.finite)


def ov_add(group: ValueGroup, x: OrderedValue, y: OrderedValue) -> OrderedValue:
    """Sum of values; absorbing on the top element."""
    if x.is_infinite or y.is_infinite:
        return INFINITY
    return OrderedValue(group.add(x.finite, y.finite))


def ov_parse(group: ValueGroup, text: str) -> OrderedValue:
    text = text.strip()
    if text == "inf":
        return INFINITY
    return OrderedValue(group.parse(text))


def ov_format(group: ValueGroup, x: OrderedValue) -> str:
    return "inf" if x.is_infinite else group.format(x.finite)


_GROUPS = {"int": INTEGERS, "rat": RATIONALS, "lex2": LEX2}


def group_by_name(name: str) -> ValueGroup:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ParseError(f"unknown value group {name!r} (choose from {sorted(_GROUPS)})") from None
