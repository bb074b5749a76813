"""Seeded random generators for exponents, series, balls and nests.

Everything takes an explicit ``random.Random`` so runs are reproducible from
a seed; nothing touches global random state.  Exponent windows are inclusive
integer ranges, stretched appropriately for rational and lexicographic value
groups.  Rational exponents for a series over GF(p) get only denominators
prime to p, so each has an image in the field, as the power rule's
``d(g) = g`` needs; over QQ and GF(p) for p >= 5 no denominator is left out.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Collection

from .fields import QQ, CoefficientField, PrimeField
from .series import Series, SeriesSpace
from .ultrametric import Ball
from .valuegroups import (
    INTEGERS,
    RATIONALS,
    GroupElement,
    LexPair,
    OrderedValue,
    ValueGroup,
)

Forbid = Callable[[GroupElement], bool] | Collection[GroupElement] | None


def _forbidden(forbid: Forbid) -> Callable[[GroupElement], bool]:
    if forbid is None:
        return lambda _g: False
    if callable(forbid):
        return forbid
    members = set(forbid)
    return lambda g: g in members


def random_coefficient(rng: random.Random, field: CoefficientField, nonzero: bool = False):
    if isinstance(field, PrimeField):
        return rng.randrange(1 if nonzero else 0, field.p)
    while True:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if c or not nonzero:
            return c


def _denominator(rng: random.Random, field: CoefficientField, choices: list[int]) -> int:
    """One of ``choices``, leaving out the multiples of p over GF(p)."""
    if isinstance(field, PrimeField):
        choices = [d for d in choices if d % field.p]
    return rng.choice(choices)


def random_exponent(
    rng: random.Random,
    group: ValueGroup,
    lo: int = -10,
    hi: int = 10,
    field: CoefficientField = QQ,
) -> GroupElement:
    """An exponent in the window, for a series over ``field``."""
    if group == INTEGERS:
        return rng.randint(lo, hi)
    if group == RATIONALS:
        den = _denominator(rng, field, [1, 2, 3, 4])
        return Fraction(rng.randint(lo * den, hi * den), den)
    if isinstance(group, LexPair):
        return (
            random_exponent(rng, group.left, lo, hi, field),
            random_exponent(rng, group.right, lo, hi, field),
        )
    raise ValueError(f"no exponent sampler for group {group!r}")


def random_positive(
    rng: random.Random, group: ValueGroup, field: CoefficientField = QQ
) -> GroupElement:
    """A strictly positive group element, for growing radii and offsets."""
    if group == INTEGERS:
        return rng.randint(1, 3)
    if group == RATIONALS:
        return Fraction(rng.randint(1, 6), _denominator(rng, field, [1, 2, 3]))
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
    exponents; resamples until nonempty when ``nonzero`` is set."""
    banned = _forbidden(forbid)
    for _ in range(200):
        count = rng.randint(1 if nonzero else 0, max_terms)
        terms = []
        for _ in range(count):
            g = random_exponent(rng, space.group, lo, hi, space.field)
            if banned(g):
                continue
            terms.append((random_coefficient(rng, space.field, nonzero=True), g))
        s = space.series(terms)
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
    radius = random_exponent(rng, group, -5, 5, field)
    center = random_series(rng, space, -5, 5, 4, forbid=forbid)
    balls = [Ball(space, center, OrderedValue(radius))]
    for _ in range(depth - 1):
        delta_terms = []
        for _ in range(rng.randint(0, 4)):
            g = radius
            for _ in range(rng.randint(0, 3)):
                g = group.add(g, random_positive(rng, group, field))
            if banned(g):
                continue
            delta_terms.append((random_coefficient(rng, field, nonzero=True), g))
        center = center.add(space.series(delta_terms))
        radius = group.add(radius, random_positive(rng, group, field))
        balls.append(Ball(space, center, OrderedValue(radius)))
    return balls
