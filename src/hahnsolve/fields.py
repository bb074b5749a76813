"""Exact coefficient fields: rationals and prime fields."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import ParseError

FieldElement = Any


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
    def parse(self, text: str) -> FieldElement: ...

    @abstractmethod
    def format(self, a: FieldElement) -> str: ...

    @abstractmethod
    def coerce(self, n: int | Fraction) -> FieldElement:
        """Image of a rational integer (or fraction, where defined) in the field."""

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

    def parse(self, text):
        try:
            return Fraction(text.strip())
        except ValueError:
            raise ParseError(f"not a rational coefficient: {text!r}") from None
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in coefficient: {text!r}") from None

    def format(self, a):
        return str(a)

    def coerce(self, n):
        return Fraction(n)


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

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div(self.coerce(int(num)), self.coerce(int(den)))
            return int(text) % self.p
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a mod-{self.p} coefficient: {text!r}") from None

    def format(self, a):
        return str(a % self.p)

    def coerce(self, n):
        if isinstance(n, Fraction):
            return self.div(n.numerator % self.p, n.denominator % self.p)
        return n % self.p


QQ = RationalField()


def field_by_name(name: str) -> CoefficientField:
    name = name.strip()
    if name in ("rationals", "q", "qq"):
        return QQ
    if name.startswith("prime:"):
        try:
            return PrimeField(int(name.split(":", 1)[1]))
        except ValueError as e:
            raise ParseError(f"bad prime field spec {name!r}: {e}") from None
    raise ParseError(f"unknown field {name!r} (use 'rationals' or 'prime:<p>')")
