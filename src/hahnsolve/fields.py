"""Exact coefficient fields (rationals, prime fields) and the shared text readers."""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import ParseError

FieldElement = Any

_NUMBER_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_number(text: str, what: str, integer: bool = False) -> int | Fraction:
    """Read ``[+-]?[0-9]+(/[0-9]+)?``: ASCII digits, outer whitespace ignored.

    Every number read from text goes through here.  Returns an ``int``, or a
    ``Fraction`` for a ``/`` part, which ``integer`` refuses; ``what`` names
    the number in the ``ParseError``.
    """
    m = _NUMBER_RE.fullmatch(text.strip())
    if m is None or (integer and m[2] is not None):
        form = "integer" if integer else "integer or integer/positive-integer"
        raise ParseError(f"bad {what} {text!r} (want {form})")
    if m[2] is None:
        return int(m[1])
    if int(m[2]) == 0:
        raise ParseError(f"zero denominator in {what} {text!r}")
    return Fraction(int(m[1]), int(m[2]))


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside any parentheses or braces."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return parts


class CoefficientField(ABC):
    """Field contract used by series arithmetic; all operations are exact."""

    name: str

    @property
    @abstractmethod
    def zero(self) -> FieldElement: ...

    @property
    @abstractmethod
    def one(self) -> FieldElement: ...

    @abstractmethod
    def add(self, a: FieldElement, b: FieldElement) -> FieldElement: ...

    @abstractmethod
    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement: ...

    @abstractmethod
    def neg(self, a: FieldElement) -> FieldElement: ...

    @abstractmethod
    def inv(self, a: FieldElement) -> FieldElement: ...

    @abstractmethod
    def format(self, a: FieldElement) -> str: ...

    @abstractmethod
    def coerce(self, n: int | Fraction) -> FieldElement:
        """Image of a rational integer (or fraction, where defined) in the field."""

    def parse(self, text: str) -> FieldElement:
        try:
            return self.coerce(parse_number(text, "coefficient"))
        except ZeroDivisionError as e:
            raise ParseError(f"bad coefficient {text!r}: {e}") from None

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def div(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: FieldElement) -> bool:
        """Elements are numbers (``Fraction``, canonical ``int``): zero is falsy."""
        return not a

    def __repr__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class RationalField(CoefficientField):
    name = "rationals"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def format(self, a):
        return str(a)

    def coerce(self, n):
        return n if isinstance(n, Fraction) else Fraction(n)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, repr=False)
class PrimeField(CoefficientField):
    """Integers modulo a prime, represented canonically in ``[0, p)``."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    @property
    def name(self):
        return f"gf({self.p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def format(self, a):
        return str(a % self.p)

    def coerce(self, n):
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise ZeroDivisionError(f"{n} has no image in {self.name}")
            return self.div(n.numerator % self.p, n.denominator % self.p)
        return n % self.p


QQ = RationalField()


def field_by_name(name: str) -> CoefficientField:
    name = name.strip()
    if name in ("rationals", "q", "qq"):
        return QQ
    if name.startswith("prime:"):
        try:
            return PrimeField(parse_number(name[len("prime:") :], "prime", integer=True))
        except ValueError as e:
            raise ParseError(f"bad prime field spec {name!r}: {e}") from None
    raise ParseError(f"unknown field {name!r} (use 'rationals' or 'prime:<p>')")
