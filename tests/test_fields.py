"""Coefficient fields: exact rationals and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs


class TestRationalField:
    def test_basic_ops(self):
        f = hs.QQ
        assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert f.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
        assert f.div(Fraction(1), Fraction(4)) == Fraction(1, 4)
        assert f.inv(Fraction(-2, 7)) == Fraction(-7, 2)
        assert f.sub(f.one, f.one) == f.zero

    def test_inverse_of_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            hs.QQ.inv(Fraction(0))

    def test_parse_and_format(self):
        assert hs.QQ.parse("-3/4") == Fraction(-3, 4)
        assert hs.QQ.format(Fraction(5, 1)) == "5"
        with pytest.raises(hs.ParseError):
            hs.QQ.parse("3/0")
        with pytest.raises(hs.ParseError):
            hs.QQ.parse("pi")


class TestPrimeField:
    def test_modulus_must_be_prime(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                hs.PrimeField(bad)
        hs.PrimeField(2)
        hs.PrimeField(97)

    def test_canonical_representatives(self):
        f = hs.PrimeField(7)
        assert f.add(5, 4) == 2
        assert f.neg(3) == 4
        assert f.mul(3, 5) == 1
        assert f.coerce(-1) == 6
        assert f.coerce(Fraction(1, 2)) == 4

    def test_inverses(self):
        f = hs.PrimeField(11)
        for a in range(1, 11):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_parse_accepts_fractions(self):
        f = hs.PrimeField(7)
        assert f.parse("3/4") == f.div(3, 4)
        assert f.parse("-2") == 5
        with pytest.raises(hs.ParseError):
            f.parse("1/7")

    def test_coerce_names_a_fraction_without_image(self):
        f = hs.PrimeField(3)
        with pytest.raises(ZeroDivisionError, match=r"^1/3 has no image in gf\(3\)$"):
            f.coerce(Fraction(1, 3))
        assert f.coerce(Fraction(3, 2)) == 0

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    def test_field_axioms_sampled(self, a, b, c):
        f = hs.PrimeField(13)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        assert f.mul(a, f.one) == a % 13


def test_field_by_name():
    assert hs.field_by_name("rationals") is hs.QQ
    assert hs.field_by_name("prime:5") == hs.PrimeField(5)
    with pytest.raises(hs.ParseError):
        hs.field_by_name("prime:6")
    with pytest.raises(hs.ParseError):
        hs.field_by_name("surreal")
