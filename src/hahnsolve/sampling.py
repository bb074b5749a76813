"""Seeded random generators for exponents, series, balls and nests.

Everything takes an explicit ``random.Random`` so runs are reproducible from
a seed; nothing touches global random state.  Exponent windows are inclusive
integer ranges, stretched appropriately for rational and lexicographic value
groups.  Rational exponents for a series over GF(p) get only denominators
prime to p, so each has an image in the field, as the power rule's
``d(g) = g`` needs; over QQ and GF(p) for p >= 5 no denominator is left out.

A seed gives the same draws as the plain ``randint``/``Fraction(n, d)``
sampler in ``tests/test_sampling.py``, on a given interpreter (Python promises
only ``random()`` across versions).  In ``random_series``, ``random_coefficient``
and ``random_exponent`` the contract is ``random.Random``'s ``_randbelow``:
each number is drawn by a function built once per table or range (``_uniform``)
that calls ``getrandbits(n.bit_length())`` until the result is below ``n``, as
``choice``, ``randint`` and ``randrange`` do (GF(p) too: ``range(1, p)`` has no
``len`` above 2**63), in one frame, not two.  ``random_positive`` and
``random_nest``'s own counts draw through ``randint``, ``choice`` and ``random()``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable, Collection

from .fields import QQ, CoefficientField, PrimeField, _q
from .series import Series, SeriesSpace, make_series
from .ultrametric import Ball
from .valuegroups import INTEGERS, RATIONALS, GroupElement, LexPair, OrderedValue, ValueGroup

Forbid = Callable[[GroupElement], bool] | Collection[GroupElement] | None

# Row n + 9 holds Fraction(n, d) for d = 1..6: choosing a row, then an entry,
# draws as randint(-9, 9) then randint(1, 6) would, already in lowest terms.
_QQ_ROWS = tuple(tuple(Fraction(n, d) for d in range(1, 7)) for n in range(-9, 10))
_ZERO_ROW = 9  # the row of n = 0


def _forbidden(forbid: Forbid) -> Callable[[GroupElement], bool] | None:
    """The forbid test, or ``None`` when nothing is forbidden."""
    if callable(forbid):
        return forbid
    if not forbid:
        return None
    return forbid.__contains__


def _uniform(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """A function drawing an int in ``[lo, hi)`` as ``rng.randrange(lo, hi)``
    and ``rng.choice(range(lo, hi))`` do, value and generator state alike."""
    n = hi - lo
    if n <= 0:  # refused when drawn from, with choice's IndexError, as before
        return partial(rng.choice, ())
    getrandbits, k = rng.getrandbits, n.bit_length()

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw


def _coefficients(rng: random.Random, field: CoefficientField, nonzero: bool) -> Callable:
    """The coefficient rule: a function drawing one canonical coefficient."""
    if isinstance(field, PrimeField):
        return _uniform(rng, 1 if nonzero else 0, field.p)
    getrandbits = rng.getrandbits
    rows, entries = len(_QQ_ROWS), len(_QQ_ROWS[0])
    row_bits, entry_bits = rows.bit_length(), entries.bit_length()

    def draw():  # a row, then an entry, each drawn as ``_uniform`` would
        while True:
            i = getrandbits(row_bits)
            while i >= rows:
                i = getrandbits(row_bits)
            j = getrandbits(entry_bits)
            while j >= entries:
                j = getrandbits(entry_bits)
            if not nonzero or i != _ZERO_ROW:
                return _QQ_ROWS[i][j]

    return draw


def _denominators(field: CoefficientField, choices: tuple[int, ...]) -> tuple[int, ...]:
    """``choices``, leaving out the multiples of p over GF(p)."""
    p = field.p if isinstance(field, PrimeField) else 0
    return tuple([d for d in choices if not p or d % p])


def _exponents(rng: random.Random, group: ValueGroup, lo: int, hi: int, field: CoefficientField):
    """The exponent rule: a function drawing one exponent in the window; a
    rational one is built in lowest terms by the kernel's ``_q``."""
    if group == INTEGERS:
        return _uniform(rng, lo, hi + 1)
    if group == RATIONALS:
        dens = _denominators(field, (1, 2, 3, 4))
        windows = [(d, _uniform(rng, lo * d, hi * d + 1)) for d in dens]
        window = _uniform(rng, 0, len(windows))

        def draw():
            d, numerator = windows[window()]
            n = numerator()
            g = gcd(n, d)
            return _q(n // g, d // g)

        return draw
    if isinstance(group, LexPair):
        left = _exponents(rng, group.left, lo, hi, field)
        right = _exponents(rng, group.right, lo, hi, field)
        return lambda: (left(), right())
    raise ValueError(f"no exponent sampler for group {group!r}")


def random_coefficient(rng: random.Random, field: CoefficientField, nonzero: bool = False):
    return _coefficients(rng, field, nonzero)()


def random_exponent(
    rng: random.Random,
    group: ValueGroup,
    lo: int = -10,
    hi: int = 10,
    field: CoefficientField = QQ,
) -> GroupElement:
    """An exponent in the window, for a series over ``field``."""
    return _exponents(rng, group, lo, hi, field)()


def random_positive(
    rng: random.Random, group: ValueGroup, field: CoefficientField = QQ
) -> GroupElement:
    """A strictly positive group element, for growing radii and offsets."""
    if group == INTEGERS:
        return rng.randint(1, 3)
    if group == RATIONALS:
        return Fraction(rng.randint(1, 6), rng.choice(_denominators(field, (1, 2, 3))))
    if isinstance(group, LexPair):
        if rng.random() < 0.3:
            return (
                random_positive(rng, group.left, field),
                random_exponent(rng, group.right, -2, 2, field),
            )
        return (group.left.zero, random_positive(rng, group.right, field))
    raise ValueError(f"no positive sampler for group {group!r}")


def random_series(
    rng: random.Random,
    space: SeriesSpace,
    lo: int = -10,
    hi: int = 10,
    max_terms: int = 8,
    nonzero: bool = False,
    forbid: Forbid = None,
) -> Series:
    """Random series with support drawn from the window, skipping forbidden
    exponents; resamples until nonempty when ``nonzero`` is set.  The drawn
    pairs are canonical, so ``make_series`` takes them as they are."""
    banned = _forbidden(forbid)
    field, group = space.field, space.group
    exponent = _exponents(rng, group, lo, hi, field)
    coefficient = _coefficients(rng, field, True)
    count = _uniform(rng, 1 if nonzero else 0, max_terms + 1)
    for _ in range(200):
        terms = []
        for _ in range(count()):
            g = exponent()
            if banned is None or not banned(g):
                terms.append((coefficient(), g))
        s = make_series(field, group, terms)
        if s.terms or not nonzero:
            return s
    raise RuntimeError("window and constraints left no nonzero series to sample")


def random_ball(rng: random.Random, space: SeriesSpace) -> Ball:
    center = random_series(rng, space, -5, 5, 5)
    radius = random_exponent(rng, space.group, -5, 5, space.field)
    return Ball(space, center, OrderedValue(radius))


def random_nest(
    rng: random.Random,
    space: SeriesSpace,
    depth: int = 3,
    forbid: Forbid = None,
) -> list[Ball]:
    """A strictly shrinking chain of balls, largest first.

    Each successive center perturbs the previous one only at or above the
    current radius, so membership is preserved while radii strictly grow.
    """
    if depth < 1:
        raise ValueError("a nest needs at least one ball")
    banned = _forbidden(forbid)
    group, field = space.group, space.field
    coefficient = _coefficients(rng, field, True)
    radius = random_exponent(rng, group, -5, 5, field)
    center = random_series(rng, space, -5, 5, 4, forbid=forbid)
    balls = [Ball(space, center, OrderedValue(radius))]
    for _ in range(depth - 1):
        delta_terms = []
        for _ in range(rng.randint(0, 4)):
            g = radius
            for _ in range(rng.randint(0, 3)):
                g = group.add(g, random_positive(rng, group, field))
            if banned is not None and banned(g):
                continue
            delta_terms.append((coefficient(), g))
        center = center.add(make_series(field, group, delta_terms))
        radius = group.add(radius, random_positive(rng, group, field))
        balls.append(Ball(space, center, OrderedValue(radius)))
    return balls
