"""Exact coefficient fields (rationals, prime fields) and the shared text readers.

Rationals are ``fractions.Fraction`` values in lowest terms with a positive
denominator, built by one exact kernel below: ``RationalField`` and the
``rat`` value group do their arithmetic on numerator and denominator through
it, not through ``Fraction``'s operators, and read and print through it too.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
    n, d = int(m[1]), int(m[2])
    if not d:
        raise ParseError(f"zero denominator in {what} {text!r}")
    g = gcd(n, d)  # d > 0, so n/g over d/g is in lowest terms
    return _q(n // g, d // g)


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside any parentheses or braces; a text with no
    bracket is split by ``str.split``, which gives the same pieces."""
    if not ("(" in text or ")" in text or "{" in text or "}" in text):
        return text.split(sep)
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


# -- the exact rational kernel ---------------------------------------------
# Each function reads its operands' numerator and denominator, applies the gcd
# rules ``Fraction`` itself uses (Knuth, TAOCP 4.5.1), and builds the result
# in lowest terms from ``Fraction``'s two slots, so nothing is normalised
# twice and no operator dispatch or ABC check runs.  Operands are ``Fraction``
# or ``int``; every result is a ``Fraction``.

_new = object.__new__


def _q(n: int, d: int) -> Fraction:
    """The ``Fraction`` n/d for coprime ints n and d > 0; nothing is checked."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _q_of(x) -> Fraction:
    """``x`` as a ``Fraction``: itself, or an int's exact image (built here,
    as ``_q`` would); any other type, float and bool too, is a ``TypeError``."""
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        q = _new(Fraction)
        q._numerator = x
        q._denominator = 1
        return q
    raise TypeError(f"not an int or a Fraction: {x!r}")


def _q_str(a) -> str:
    """``str(a)`` for a rational, read from a ``Fraction``'s slots rather than
    through its Python-level ``__str__``; any other value is ``str``'d."""
    if type(a) is not Fraction:
        return str(a)
    n, d = a._numerator, a._denominator
    return str(n) if d == 1 else f"{n}/{d}"


def _q_add(a, b) -> Fraction:
    if type(a) is not Fraction or type(b) is not Fraction:
        a, b = _q_of(a), _q_of(b)
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _q_mul(a, b) -> Fraction:
    if type(a) is not Fraction or type(b) is not Fraction:
        a, b = _q_of(a), _q_of(b)
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    q = _new(Fraction)  # _q's body: a product is two per correction step
    q._numerator = na * nb
    q._denominator = da * db
    return q


def _q_neg(a) -> Fraction:
    if type(a) is not Fraction:
        a = _q_of(a)
    return _q(-a._numerator, a._denominator)


def _q_inv(a) -> Fraction:
    if type(a) is not Fraction:
        a = _q_of(a)
    n, d = a._numerator, a._denominator
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return _q(d, n) if n > 0 else _q(-d, -n)


_Q_ZERO = _q(0, 1)
_Q_ONE = _q(1, 1)


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
        """Image of an ``int`` (or a ``Fraction``, where defined) in the field;
        a fraction with no image is refused with ``ParseError``, any other
        type with ``TypeError``."""

    def parse(self, text: str) -> FieldElement:
        n = parse_number(text, "coefficient")
        try:
            return self.coerce(n)
        except ParseError as e:
            raise ParseError(f"bad coefficient {text!r}: {e}") from None

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def div(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: FieldElement) -> bool:
        """Elements are numbers (``Fraction``, canonical ``int``): zero is
        falsy.  A ``Fraction``'s numerator is read from its slot, so the test
        runs no Python-level ``Fraction.__bool__``."""
        return not (a._numerator if type(a) is Fraction else a)

    def __repr__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class RationalField(CoefficientField):
    """QQ: elements are ``Fraction``s built by the rational kernel above;
    ``sub``, ``div`` and ``is_zero`` are the inherited ones."""

    name = "rationals"

    @property
    def zero(self):
        return _Q_ZERO

    @property
    def one(self):
        return _Q_ONE

    def add(self, a, b):
        return _q_add(a, b)

    def mul(self, a, b):
        return _q_mul(a, b)

    def neg(self, a):
        return _q_neg(a)

    def inv(self, a):
        return _q_inv(a)

    def parse(self, text):
        # QQ's coerce refuses nothing, so no refusal wrapper is needed
        return _q_of(parse_number(text, "coefficient"))

    format = staticmethod(_q_str)

    # the kernel's reader itself, with no method frame around it: the power
    # rule's scale is ``coerce``, three calls per correction step
    coerce = staticmethod(_q_of)


# Miller-Rabin to the bases _WITNESSES decides primality exactly below
# _PRIME_BOUND, the least strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = [pow(a, d << i, p) for i in range(s)]
        if x[0] != 1 and p - 1 not in x:
            return False
    return True


@dataclass(frozen=True, repr=False)
class PrimeField(CoefficientField):
    """Integers modulo a prime, represented canonically in ``[0, p)``."""

    p: int

    def __post_init__(self):
        if self.p >= _PRIME_BOUND:
            raise ParseError(f"modulus must be below {_PRIME_BOUND:,}, got {self.p}")
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
        if type(n) is int:  # not ``isinstance``: ABCMeta's check runs in Python
            return n % self.p
        if type(n) is Fraction:
            if n.denominator % self.p == 0:
                raise ParseError(f"{n} has no image in {self.name}")
            return self.div(n.numerator % self.p, n.denominator % self.p)
        raise TypeError(f"not an int or a Fraction: {n!r}")


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
