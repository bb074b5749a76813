"""Series construction, valuation, arithmetic, and the precision quotient."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs

from .conftest import (
    F5Z,
    QZ,
    assert_answer,
    exact_series,
    nonzero_exact_series,
    refused,
    truncated_series,
)

INF = hs.INFINITY
OV = hs.OrderedValue

# (series, alpha, the class's value in the quotient by the radius-alpha ball)
QUOTIENT_TABLE = {
    "value below alpha": (QZ.monomial(1, 2), OV(5), OV(2)),
    "value at or above alpha": (QZ.monomial(1, 7), OV(5), INF),
    "exact zero": (QZ.zero, OV(-3), INF),
    "exact zero, alpha inf": (QZ.zero, INF, INF),
    "exact series, alpha inf": (QZ.monomial(1, 2), INF, OV(2)),
    "truncated, value below alpha": (QZ.series([(1, 1)], OV(5)), OV(3), OV(1)),
    "truncated, value above alpha": (QZ.series([(1, 4)], OV(5)), OV(3), INF),
    "O(6), alpha below the bound": (QZ.series([], OV(6)), OV(3), INF),
    "O(5), alpha at the bound": (QZ.series([], OV(5)), OV(5), INF),
    "O(2), alpha above the bound": (QZ.series([], OV(2)), OV(5), refused(2)),
    "O(2), alpha inf": (QZ.series([], OV(2)), INF, refused(2)),
}


class TestMakeSeries:
    def test_drops_zero_coefficients(self):
        s = QZ.series([(3, 2), (0, 5)])
        assert s.support == (2,)

    def test_cancellation_gives_zero(self):
        s = QZ.series([(1, 2), (-1, 2)])
        assert s.terms == ()
        assert s.valuation().is_infinite

    def test_terms_at_or_above_cutoff_dropped(self):
        s = QZ.series([(1, 7)], OV(5))
        assert s.terms == ()
        assert s.truncation == OV(5)

    def test_duplicates_summed(self):
        s = QZ.series([(1, 3), (2, 3)])
        assert s.coefficient(3) == Fraction(3)

    def test_round_trip_of_fields(self):
        s = QZ.series([(3, -2), (1, 5)], OV(9))
        again = hs.make_series(s.field, s.group, s.terms, s.truncation)
        assert again == s

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            hs.Series(hs.QQ, hs.INTEGERS, (hs.Term(Fraction(0), 1),))
        with pytest.raises(ValueError):
            hs.Series(
                hs.QQ,
                hs.INTEGERS,
                (hs.Term(Fraction(1), 5), hs.Term(Fraction(1), 2)),
            )
        with pytest.raises(ValueError):
            hs.Series(hs.QQ, hs.INTEGERS, (hs.Term(Fraction(1), 7),), OV(5))


class TestValuation:
    def test_min_of_support(self):
        assert QZ.series([(3, -2), (1, 5)]).valuation() == OV(-2)

    def test_exact_zero_has_top_value(self):
        assert QZ.zero.valuation().is_infinite

    def test_zero_to_precision_is_indeterminate(self):
        s = QZ.series([], OV(10))
        with pytest.raises(hs.IndeterminateValuation) as err:
            s.valuation()
        assert err.value.bound == OV(10)
        assert s.valuation_lower_bound() == OV(10)

    def test_leading_term(self):
        assert QZ.series([(3, -2), (1, 5)]).leading_term() == hs.Term(Fraction(3), -2)
        assert QZ.series([(1, 1)]).leading_term() == hs.Term(Fraction(1), 1)
        with pytest.raises(hs.EmptySupport):
            QZ.zero.leading_term()


class TestAdditiveStructure:
    def test_add_cancels(self):
        s = QZ.series([(1, 1), (1, 2)]).add(QZ.series([(-1, 1)]))
        assert s == QZ.series([(1, 2)])

    def test_least_information_wins(self):
        s = QZ.series([(1, 1)], OV(5)).add(QZ.series([(1, 2)], OV(8)))
        assert s.truncation == OV(5)

    def test_scale_by_zero_keeps_precision(self):
        s = QZ.series([(1, 1)], OV(5)).scale(Fraction(0))
        assert s.terms == ()
        assert s.truncation == OV(5)

    def test_non_canonical_scalar_drops_zero_products(self):
        f7 = hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS)
        s = f7.series([(1, 1), (3, 4)], OV(9))
        assert s.scale(7) == f7.series([], OV(9))
        assert s.scale(8) == s
        assert _validated(s.scale(-7)) == f7.series([], OV(9))

    def test_cross_space_rejected(self):
        with pytest.raises(ValueError):
            QZ.series([(1, 1)]).add(F5Z.series([(1, 1)]))

    @given(exact_series(), exact_series(), exact_series())
    def test_group_laws(self, a, b, c):
        assert a.add(b) == b.add(a)
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.add(a.neg()).terms == ()
        assert a.add(QZ.zero) == a


class TestOperandsShareOneSpace:
    def test_equal_field_and_group_built_apart_are_accepted(self):
        x = hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS).series([(1, 1), (2, 3)])
        y = hs.SeriesSpace(hs.PrimeField(7), type(hs.INTEGERS)()).monomial(6, 1)
        assert x.field is not y.field and x.group is not y.group
        assert x.add(y) == x.sub(y.neg()) == hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS).monomial(2, 3)
        assert y.add(x).terms == x.add(y).terms
        assert x.mul(y).terms == ((6, 2), (5, 4))

    @pytest.mark.parametrize(
        "other",
        [
            hs.SeriesSpace(hs.PrimeField(5), hs.INTEGERS),
            hs.SeriesSpace(hs.QQ, hs.INTEGERS),
            hs.SeriesSpace(hs.PrimeField(7), hs.RATIONALS),
        ],
        ids=["gf5", "rationals", "rat-exponents"],
    )
    def test_different_field_or_group_is_refused(self, other):
        x = hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS).monomial(1, 1)
        y = other.monomial(1, 2)
        for op in ("add", "sub", "mul"):
            with pytest.raises(ValueError, match="different fields or value groups"):
                getattr(x, op)(y)
            with pytest.raises(ValueError, match="different fields or value groups"):
                getattr(y, op)(x)


MERGE_SPACES = [
    hs.SeriesSpace(field, group)
    for field in (hs.QQ, hs.PrimeField(7))
    for group in (hs.INTEGERS, hs.RATIONALS, hs.LEX2)
]


def _group_elements(group):
    small = st.integers(-6, 6)
    if group == hs.LEX2:
        return st.tuples(small, small)
    if group == hs.RATIONALS:
        return st.fractions(-6, 6, max_denominator=3)
    return small


@st.composite
def merge_operands(draw):
    """Two normalised series over one space, a cutoff, and shared exponents.

    Some of ``x``'s terms are copied into ``y`` negated (so ``add`` cancels
    them) or unchanged (so ``sub`` cancels them); truncations are exact or
    finite, independently.
    """
    space = draw(st.sampled_from(MERGE_SPACES))
    field, elements = space.field, _group_elements(space.group)
    pairs = st.lists(st.tuples(st.integers(-9, 9), elements), max_size=10)
    cutoffs = st.one_of(st.just(INF), elements.map(OV))
    x = space.series(draw(pairs), draw(cutoffs))
    shared = draw(st.lists(st.sampled_from(x.terms), max_size=4)) if x.terms else []
    flips = draw(st.lists(st.booleans(), min_size=len(shared), max_size=len(shared)))
    copied = [(field.neg(c) if flip else c, g) for (c, g), flip in zip(shared, flips)]
    y = space.series(draw(pairs) + copied, draw(cutoffs))
    return x, y, draw(cutoffs)


def _validated(s):
    """Rebuild ``s`` through the checking constructor; raises if invalid."""
    return hs.Series(s.field, s.group, s.terms, s.truncation)


class TestMergeMatchesNormaliser:
    @given(merge_operands())
    def test_add_sub_neg_truncate(self, operands):
        x, y, alpha = operands
        field, group = x.field, x.group
        cut = min(x.truncation, y.truncation)
        negated_y = [(field.neg(c), g) for c, g in y.terms]
        expected = {
            "add": hs.make_series(field, group, x.terms + y.terms, cut),
            "sub": hs.make_series(field, group, list(x.terms) + negated_y, cut),
            "neg": hs.make_series(field, group, negated_y, y.truncation),
            "truncate": hs.make_series(
                field, group, x.terms, min(x.truncation, alpha)
            ),
        }
        got = {
            "add": x.add(y),
            "sub": x.sub(y),
            "neg": y.neg(),
            "truncate": x.truncate(alpha),
        }
        for name, result in got.items():
            assert result == expected[name], name
            assert _validated(result) == result, name


class TestMergePlacesAOneTermOperand:
    """A one-term operand against four terms at exponents -4, 0, 2, 6: below
    them, at the cursor, between two, on an inner one, at and past the last."""

    LONG = ((3, -4), (1, 0), (2, 2), (5, 6))

    @pytest.mark.parametrize("space", MERGE_SPACES, ids=lambda s: f"{s.field.name}-{s.group.name}")
    @pytest.mark.parametrize("at", [-6, -4, 1, 2, 6, 8])
    @pytest.mark.parametrize("cancel", [False, True], ids=["keep", "cancel"])
    @pytest.mark.parametrize("one_cut", [None, 1], ids=["one-exact", "one-cut"])
    @pytest.mark.parametrize("long_cut", [None, 7], ids=["long-exact", "long-cut"])
    def test_add_and_sub(self, space, at, cancel, one_cut, long_cut):
        field, group = space.field, space.group

        def exponent(n):
            return (n, -n) if group == hs.LEX2 else Fraction(n, 2) if group == hs.RATIONALS else n

        def cut(offset):
            return INF if offset is None else OV(exponent(offset))

        long = space.series([(c, exponent(g)) for c, g in self.LONG], cut(long_cut))
        shared = dict((g, c) for c, g in self.LONG).get(at)
        for op in ("add", "sub"):
            coeff = 4
            if cancel and shared is not None:
                coeff = -shared if op == "add" else shared
            one_bound = cut(None if one_cut is None else at + one_cut)
            one = space.series([(coeff, exponent(at))], one_bound)
            assert len(one.terms) == 1
            for x, y in ((one, long), (long, one)):
                got = getattr(x, op)(y)
                ys = [(field.neg(c), g) for c, g in y.terms] if op == "sub" else list(y.terms)
                cutoff = min(x.truncation, y.truncation)
                assert got == hs.make_series(field, group, list(x.terms) + ys, cutoff), (op, x, y)
                assert _validated(got) == got


@st.composite
def identity_operands(draw):
    """Two series over one space, often with empty support, and a scalar.

    Truncations are exact or finite, independently.  The scalar is zero,
    canonical, or a raw integer such as ``7`` over GF(7) that is not a
    canonical field element.
    """
    space = draw(st.sampled_from(MERGE_SPACES))
    elements = _group_elements(space.group)
    pairs = st.lists(st.tuples(st.integers(-9, 9), elements), max_size=8)
    cutoffs = st.one_of(st.just(INF), elements.map(OV))
    x, y = (
        space.series(draw(st.one_of(st.just([]), pairs)), draw(cutoffs))
        for _ in range(2)
    )
    raw = st.sampled_from((7, -7, 14, 8, -1))
    scalar = draw(st.one_of(st.just(0), raw, st.integers(-9, 9).map(space.field.coerce)))
    return space, x, y, scalar


class TestTrustedBuildersMatchNormaliser:
    @given(identity_operands())
    def test_scale_add_sub_zero(self, operands):
        space, x, y, scalar = operands
        field, group = space.field, space.group
        cut = min(x.truncation, y.truncation)
        negated_y = [(field.neg(c), g) for c, g in y.terms]
        expected = {
            "scale": hs.make_series(
                field, group, [(field.mul(scalar, c), g) for c, g in x.terms], x.truncation
            ),
            "add": hs.make_series(field, group, x.terms + y.terms, cut),
            "sub": hs.make_series(field, group, list(x.terms) + negated_y, cut),
            "zero": hs.make_series(field, group, ()),
        }
        got = {
            "scale": x.scale(scalar),
            "add": x.add(y),
            "sub": x.sub(y),
            "zero": space.zero,
        }
        for name, result in got.items():
            assert result == expected[name], name
            assert _validated(result) == result, name


class TestMultiplication:
    def test_polynomial_identity(self):
        one_plus = QZ.series([(1, 0), (1, 1)])
        one_minus = QZ.series([(1, 0), (-1, 1)])
        assert one_plus.mul(one_minus) == QZ.series([(1, 0), (-1, 2)])

    def test_inverse_monomials(self):
        assert QZ.series([(1, -1)]).mul(QZ.series([(1, 1)])) == QZ.series([(1, 0)])

    def test_truncation_propagation(self):
        s1 = QZ.series([(1, 2)], OV(10))
        s2 = QZ.series([(1, 3)], OV(10))
        prod = s1.mul(s2)
        assert prod.support == (5,)
        assert prod.truncation == OV(12)

    def test_exact_times_exact_is_exact(self):
        prod = QZ.series([(1, 2)]).mul(QZ.series([(2, 3)]))
        assert prod.is_exact

    def test_indeterminate_factor_propagates(self):
        # O(3) has no valuation, only the bound 3, and the bound decides the product
        blurry = QZ.series([], OV(3))
        known = QZ.series([(1, 2)], OV(10))
        assert known.mul(blurry) == QZ.series([], OV(5))

    @pytest.mark.parametrize(
        "left, right, product",
        [
            (QZ.series([(1, 1)], OV(3)), QZ.series([], OV(5)), QZ.series([], OV(6))),
            (QZ.series([], OV(5)), QZ.series([], OV(5)), QZ.series([], OV(10))),
        ],
    )
    def test_factor_zero_to_its_precision_is_bounded(self, left, right, product):
        assert left.mul(right) == product
        assert right.mul(left) == product

    def test_exact_zero_absorbs_even_blurry_factors(self):
        blurry = QZ.series([], OV(3))
        assert QZ.zero.mul(blurry) == QZ.zero

    def test_exact_monomial_times_blurry_zero(self):
        prod = QZ.series([(1, 2)]).mul(QZ.series([], OV(3)))
        assert prod.terms == ()
        assert prod.truncation == OV(5)

    @given(nonzero_exact_series(), nonzero_exact_series())
    def test_valuation_is_multiplicative(self, a, b):
        assert a.mul(b).valuation() == hs.ov_add(
            hs.INTEGERS, a.valuation(), b.valuation()
        )

    @given(exact_series(-5, 5, 4), exact_series(-5, 5, 4), exact_series(-5, 5, 4))
    def test_ring_laws_on_exact_series(self, a, b, c):
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


class TestQuotient:
    def test_truncate_drops_high_terms(self):
        s = QZ.series([(1, -1), (1, 0), (1, 3)])
        t = s.truncate(OV(2))
        assert t.support == (-1, 0)
        assert t.truncation == OV(2)

    def test_truncate_at_top_is_identity(self):
        s = QZ.series([(1, -1), (1, 3)])
        assert s.truncate(INF) == s

    def test_truncate_zero(self):
        assert QZ.zero.truncate(OV(0)) == QZ.series([], OV(0))

    @pytest.mark.parametrize("s, alpha, answer", QUOTIENT_TABLE.values(), ids=QUOTIENT_TABLE)
    def test_quotient_valuation(self, s, alpha, answer):
        assert_answer(lambda: s.quotient_valuation(alpha), answer)

    @given(truncated_series(), truncated_series())
    def test_truncate_is_additive(self, a, b):
        alpha = OV(2)
        lhs = a.add(b).truncate(alpha)
        rhs = a.truncate(alpha).add(b.truncate(alpha))
        assert lhs == rhs


class TestPrimeFieldSeries:
    def test_coefficients_normalized(self):
        s = F5Z.series([(7, 1), (3, 1)])
        assert s.terms == () or s.coefficient(1) == 0
        t = F5Z.series([(4, 2), (3, 2)])
        assert t.coefficient(2) == 2

    def test_neg_wraps(self):
        s = F5Z.series([(2, 0)])
        assert s.neg().coefficient(0) == 3


F7Z = hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS)

# (space, coefficient, the field element it becomes)
COERCION_TABLE = {
    "QQ int": (QZ, 3, Fraction(3)),
    "QQ fraction": (QZ, Fraction(1, 2), Fraction(1, 2)),
    "GF(7) int": (F7Z, 10, 3),
    "GF(7) negative int": (F7Z, -1, 6),
    "GF(7) fraction": (F7Z, Fraction(1, 2), 4),
    "GF(7) fraction in lowest terms": (F7Z, Fraction(10, 4), 6),
}


class TestSpaceCoercesCoefficients:
    @pytest.mark.parametrize("case", sorted(COERCION_TABLE))
    def test_series_and_monomial_coerce_into_the_field(self, case):
        space, c, element = COERCION_TABLE[case]
        s = space.series([(c, 2), (1, 5)])
        assert s.terms == (hs.Term(element, 2), hs.Term(space.field.one, 5))
        assert space.monomial(c, 2).terms == (hs.Term(element, 2),)
        assert type(s.coefficient(2)) is type(element)

    @pytest.mark.parametrize(
        "space, zero",
        [(QZ, 0), (QZ, Fraction(0)), (F7Z, 0), (F7Z, Fraction(0)), (F7Z, 7),
         (F7Z, Fraction(14, 3))],
    )
    def test_a_zero_coefficient_is_dropped(self, space, zero):
        assert space.monomial(zero, 2) == space.zero
        assert space.series([(zero, 2), (1, 3)]).terms == (hs.Term(space.field.one, 3),)

    @pytest.mark.parametrize("space", [QZ, F7Z], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("c", [0, 1, -2, 9, Fraction(1, 2), Fraction(-5, 3)])
    @pytest.mark.parametrize("g", [-1, 0, 4])
    def test_monomial_is_the_one_term_series(self, space, c, g):
        assert space.monomial(c, g) == space.series([(c, g)])

    def test_a_fraction_without_image_is_refused(self):
        with pytest.raises(hs.ParseError, match="no image"):
            F7Z.monomial(Fraction(1, 7), 0)
