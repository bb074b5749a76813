"""The sampler's stream, pinned against the plain ``randint``/``Fraction`` sampler.

``REFERENCE`` below is that sampler as it stood before the draws went through
one RNG call per number: every number through ``randint`` or ``randrange``,
every QQ coefficient a new ``Fraction(n, d)``, every series built through
``SeriesSpace.series``.  At each seed the package's generators must return
values with the same reprs and leave the generator in the same state, so the
stream that follows is the same too.
"""

import random
from fractions import Fraction

import pytest

import hahnsolve as hs


class REFERENCE:
    @staticmethod
    def _forbidden(forbid):
        if forbid is None:
            return lambda _g: False
        if callable(forbid):
            return forbid
        members = set(forbid)
        return lambda g: g in members

    @staticmethod
    def coefficient(rng, field, nonzero=False):
        if isinstance(field, hs.PrimeField):
            return rng.randrange(1 if nonzero else 0, field.p)
        while True:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if c or not nonzero:
                return c

    @staticmethod
    def _denominator(rng, field, choices):
        if isinstance(field, hs.PrimeField):
            choices = [d for d in choices if d % field.p]
        return rng.choice(choices)

    @classmethod
    def exponent(cls, rng, group, lo=-10, hi=10, field=hs.QQ):
        if group == hs.INTEGERS:
            return rng.randint(lo, hi)
        if group == hs.RATIONALS:
            den = cls._denominator(rng, field, [1, 2, 3, 4])
            return Fraction(rng.randint(lo * den, hi * den), den)
        return (
            cls.exponent(rng, group.left, lo, hi, field),
            cls.exponent(rng, group.right, lo, hi, field),
        )

    @classmethod
    def positive(cls, rng, group, field=hs.QQ):
        if group == hs.INTEGERS:
            return rng.randint(1, 3)
        if group == hs.RATIONALS:
            return Fraction(rng.randint(1, 6), cls._denominator(rng, field, [1, 2, 3]))
        if rng.random() < 0.3:
            return (
                cls.positive(rng, group.left, field),
                cls.exponent(rng, group.right, -2, 2, field),
            )
        return (group.left.zero, cls.positive(rng, group.right, field))

    @classmethod
    def series(cls, rng, space, lo=-10, hi=10, max_terms=8, nonzero=False, forbid=None):
        banned = cls._forbidden(forbid)
        for _ in range(200):
            count = rng.randint(1 if nonzero else 0, max_terms)
            terms = []
            for _ in range(count):
                g = cls.exponent(rng, space.group, lo, hi, space.field)
                if banned(g):
                    continue
                terms.append((cls.coefficient(rng, space.field, nonzero=True), g))
            s = space.series(terms)
            if s.terms or not nonzero:
                return s
        raise RuntimeError("window and constraints left no nonzero series to sample")

    @classmethod
    def ball(cls, rng, space):
        center = cls.series(rng, space, -5, 5, 5)
        radius = cls.exponent(rng, space.group, -5, 5, space.field)
        return hs.Ball(space, center, hs.OrderedValue(radius))

    @classmethod
    def nest(cls, rng, space, depth=3, forbid=None):
        banned = cls._forbidden(forbid)
        group, field = space.group, space.field
        radius = cls.exponent(rng, group, -5, 5, field)
        center = cls.series(rng, space, -5, 5, 4, forbid=forbid)
        balls = [hs.Ball(space, center, hs.OrderedValue(radius))]
        for _ in range(depth - 1):
            delta_terms = []
            for _ in range(rng.randint(0, 4)):
                g = radius
                for _ in range(rng.randint(0, 3)):
                    g = group.add(g, cls.positive(rng, group, field))
                if banned(g):
                    continue
                delta_terms.append((cls.coefficient(rng, field, nonzero=True), g))
            center = center.add(space.series(delta_terms))
            radius = group.add(radius, cls.positive(rng, group, field))
            balls.append(hs.Ball(space, center, hs.OrderedValue(radius)))
        return balls


# 2**64 + 13 is prime, and range(1, p) has no len above 2**63
FIELDS = [hs.QQ, *(hs.PrimeField(p) for p in (2, 3, 7, 2**64 + 13))]
GROUPS = [hs.INTEGERS, hs.RATIONALS, hs.LEX2]
# exponents each group draws often in the small window below
OFTEN = {
    hs.INTEGERS: {0, 2, -1},
    hs.RATIONALS: {Fraction(0), Fraction(1, 2), Fraction(1)},
    hs.LEX2: {(0, 0), (1, -1), (0, 2)},
}
SEEDS = range(200)


def _forbids(group):
    return [None, OFTEN[group], lambda g: hash(g) % 3 == 0]


def _draws(sampler, rng, space, forbid, nonzero):
    """One draw of each kind, in a fixed order, from either sampler."""
    field, group = space.field, space.group
    return [
        sampler.coefficient(rng, field, nonzero),
        sampler.exponent(rng, group, -2, 3, field),
        sampler.exponent(rng, group, field=field),
        sampler.series(rng, space, nonzero=nonzero, forbid=forbid),
        sampler.series(rng, space, -2, 3, 6, nonzero=nonzero, forbid=forbid),
        sampler.series(rng, space, 0, 0, 0, forbid=forbid),
        sampler.ball(rng, space),
        sampler.nest(rng, space, depth=4, forbid=forbid),
    ]


class PACKAGE:
    coefficient = staticmethod(hs.random_coefficient)
    exponent = staticmethod(hs.random_exponent)
    series = staticmethod(hs.random_series)
    ball = staticmethod(hs.random_ball)
    nest = staticmethod(hs.random_nest)


@pytest.mark.parametrize("group", GROUPS, ids=str)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_draw_matches_the_reference_sampler(field, group):
    space = hs.SeriesSpace(field, group)
    for forbid in _forbids(group):
        for nonzero in (False, True):
            for seed in SEEDS:
                ours, theirs = random.Random(seed), random.Random(seed)
                got = _draws(PACKAGE, ours, space, forbid, nonzero)
                want = _draws(REFERENCE, theirs, space, forbid, nonzero)
                assert repr(got) == repr(want), (seed, nonzero)
                assert ours.getstate() == theirs.getstate(), (seed, nonzero)


def test_positive_draws_match_the_reference_sampler():
    for field in FIELDS:
        for group in GROUPS:
            for seed in SEEDS:
                ours, theirs = random.Random(seed), random.Random(seed)
                got = [hs.random_positive(ours, group, field) for _ in range(5)]
                want = [REFERENCE.positive(theirs, group, field) for _ in range(5)]
                assert repr(got) == repr(want)
                assert ours.getstate() == theirs.getstate()


def test_qq_coefficients_are_canonical_fractions():
    rng = random.Random(0)
    drawn = [hs.random_coefficient(rng, hs.QQ) for _ in range(2000)]
    assert all(type(c) is Fraction for c in drawn)
    assert set(drawn) == {Fraction(n, d) for n in range(-9, 10) for d in range(1, 7)}
