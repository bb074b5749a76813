"""Balls, nests, intersection, and the valuation axioms on series."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs

from .conftest import QLEX, QRAT, QZ, exact_series, truncated_series

OV = hs.OrderedValue
INF = hs.INFINITY


def ball(center_pairs, radius):
    return hs.Ball(QZ, QZ.series(center_pairs), hs.OrderedValue(radius))


def trunc(pairs, cut):
    return QZ.series(pairs, OV(cut))


class TestBall:
    def test_contains(self):
        b = ball([], 1)
        assert b.contains(QZ.series([(1, 1)]))
        assert b.contains(QZ.series([(2, 5)]))
        assert b.contains(QZ.zero)
        assert not b.contains(QZ.series([(1, -1)]))
        assert not b.contains(QZ.series([(1, 0)]))

    def test_any_member_is_a_center(self):
        b = ball([(1, 1)], 1)
        other = hs.Ball(QZ, QZ.series([(1, 1), (1, 3)]), hs.OrderedValue(1))
        assert b.subset(other) and other.subset(b)

    def test_subset_needs_center_and_radius(self):
        big = ball([], 1)
        small = ball([(1, 1)], 2)
        assert small.subset(big)
        assert not big.subset(small)
        # same radius, far centers: disjoint, neither contains the other
        left = ball([(1, 0)], 1)
        right = ball([], 1)
        assert not left.subset(right)
        assert not right.subset(left)

    def test_infinite_radius_is_a_singleton(self):
        point = hs.Ball(QZ, QZ.series([(1, 2)]), hs.INFINITY)
        assert point.contains(QZ.series([(1, 2)]))
        assert not point.contains(QZ.series([(1, 2), (1, 9)]))


class TestCertifiedMembership:
    """``t^4 - (t^4 + O(5))`` is ``O(5)``: its value is only known to be >= 5."""

    @pytest.mark.parametrize("radius", [3, 5])
    def test_a_bound_at_or_above_the_radius_decides(self, radius):
        assert hs.Ball(QZ, QZ.monomial(1, 4), OV(radius)).contains(trunc([(1, 4)], 5))

    def test_a_radius_beyond_the_bound_is_refused(self):
        with pytest.raises(hs.IndeterminateValuation) as excinfo:
            hs.Ball(QZ, QZ.monomial(1, 4), OV(7)).contains(trunc([(1, 4)], 5))
        assert excinfo.value.bound == OV(5)

    def test_a_determined_difference_below_the_radius_is_outside(self):
        assert not hs.Ball(QZ, QZ.monomial(1, 4), OV(7)).contains(trunc([(1, 4), (1, 6)], 9))

    def test_a_nest_with_a_truncated_center_builds(self):
        outer = hs.Ball(QZ, QZ.monomial(1, 4), OV(2))
        inner = hs.Ball(QZ, trunc([(1, 4)], 5), OV(3))
        assert hs.Nest((inner, outer)).balls == (outer, inner)
        assert inner.subset(outer)
        assert not outer.subset(inner)


class TestNest:
    def test_sorts_largest_first(self):
        balls = [
            ball([(1, 1), (1, 2)], 3),
            ball([], 1),
            ball([(1, 1)], 2),
        ]
        nest = hs.Nest(tuple(balls))
        assert [b.radius for b in nest.balls] == [
            hs.OrderedValue(1),
            hs.OrderedValue(2),
            hs.OrderedValue(3),
        ]
        assert nest.smallest.radius == hs.OrderedValue(3)

    def test_incomparable_balls_rejected(self):
        with pytest.raises(hs.InvalidNest):
            hs.Nest((ball([(1, 0)], 1), ball([], 1)))

    def test_empty_rejected(self):
        with pytest.raises(hs.InvalidNest):
            hs.Nest(())

    def test_intersection_is_smallest_center(self):
        chain = [ball([], 1), ball([(1, 1)], 2), ball([(1, 1), (1, 2)], 3)]
        witness = hs.intersect_finite_nest(chain)
        assert QZ.eq(witness, QZ.series([(1, 1), (1, 2)]))
        # order of presentation must not matter
        witness2 = hs.intersect_finite_nest(list(reversed(chain)))
        assert QZ.eq(witness, witness2)

    def test_intersection_of_equal_balls(self):
        witness = hs.intersect_finite_nest([ball([], 1), ball([(1, 5)], 1)])
        # the two balls coincide, so any center of either is acceptable
        assert ball([], 1).contains(witness)


class TestUltrametricCheck:
    def test_passes_on_seeded_series_pairs(self):
        from hahnsolve.sampling import random_series

        rng = random.Random(42)
        pairs = [
            (random_series(rng, QZ, -8, 8, 6), random_series(rng, QZ, -8, 8, 6))
            for _ in range(300)
        ]
        report = hs.check_ultrametric(QZ, pairs)
        assert report.ok
        assert report.checked == 300

    def test_flags_a_fake_valuation(self):
        class Fake(hs.SeriesSpace):
            def valuation(self, a):
                # drops the sign of the leading exponent: not ultrametric
                v = hs.Series.valuation(a)
                return v if v.is_infinite else hs.OrderedValue(abs(v.finite))

        space = Fake(hs.QQ, hs.INTEGERS)
        a = space.series([(1, -2), (1, 1)])
        b = space.series([(1, 1)])
        report = hs.check_ultrametric(space, [(a, b)])
        assert not report.ok

    @given(exact_series(), exact_series())
    def test_law_holds_for_exact_series(self, a, b):
        va, vb = a.valuation(), b.valuation()
        vd = a.sub(b).valuation()
        assert vd >= min(va, vb)
        if va != vb:
            assert vd == min(va, vb)


SPACES = {"int": QZ, "rat": QRAT, "lex2": QLEX}


def any_series(space):
    """Exact or truncated series of ``space`` with at most four terms."""
    return st.one_of(
        exact_series(max_terms=4, space=space), truncated_series(max_terms=4, space=space)
    )


def certified(s):
    """The value of ``s``, or its truncation where the value is unknown."""
    try:
        return s.valuation()
    except hs.IndeterminateValuation:
        return s.truncation


class TestCertifiedBound:
    @pytest.mark.parametrize("space", SPACES.values(), ids=SPACES)
    @given(data=st.data())
    def test_bound_is_the_value_or_the_least_component_bound(self, space, data):
        parts = data.draw(st.lists(any_series(space), max_size=3))
        for s in parts:
            assert s.valuation_lower_bound() == certified(s)
            assert space.valuation_lower_bound(s) == certified(s)
        product = hs.ProductGroup(tuple(space for _ in parts))
        t = hs.ProductElement(tuple(parts))
        least = min(map(certified, parts), default=INF)
        assert product.valuation_lower_bound(t) == least
        try:
            value = product.valuation(t)
        except hs.IndeterminateValuation as e:
            value = e.bound
        assert value == least

    def test_default_bound_is_the_valuation(self):
        class Plain(hs.SeriesSpace):
            valuation_lower_bound = hs.ValuedGroup.valuation_lower_bound

        plain = Plain(hs.QQ, hs.INTEGERS)
        assert plain.valuation_lower_bound(QZ.monomial(1, 3)) == OV(3)
        with pytest.raises(hs.IndeterminateValuation):
            plain.valuation_lower_bound(trunc([], 5))
