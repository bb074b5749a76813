"""Coefficient fields: exact rationals and prime fields."""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs
from hahnsolve.fields import _split_top_level, parse_number

from .test_parsing import REFERENCE


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


# small, and beyond 2**64 either sign; a Fraction operand is built from two
_INTEGERS = st.integers(-6, 6) | st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
_OPERANDS = _INTEGERS | st.builds(Fraction, _INTEGERS, _INTEGERS.filter(bool))


def _canonical(r) -> bool:
    return type(r) is Fraction and r.denominator > 0 and gcd(r.numerator, r.denominator) == 1


class TestRationalKernel:
    """QQ and the ``rat`` group against ``Fraction``'s own operators."""

    @given(_OPERANDS, _OPERANDS)
    def test_field_matches_fraction_operators(self, a, b):
        f = hs.QQ
        got = {
            "add": (f.add(a, b), a + b),
            "sub": (f.sub(a, b), a - b),
            "mul": (f.mul(a, b), a * b),
            "neg": (f.neg(a), -a),
            "coerce": (f.coerce(a), Fraction(a)),
        }
        if b:
            got["inv"] = (f.inv(b), 1 / Fraction(b))
            got["div"] = (f.div(a, b), Fraction(a) / b)
        for name, (result, expected) in got.items():
            assert result == expected and _canonical(result), name
        assert f.is_zero(a) is (a == 0)

    @given(_OPERANDS, _OPERANDS)
    def test_group_matches_fraction_operators(self, a, b):
        g = hs.RATIONALS
        for result, expected in ((g.add(a, b), a + b), (g.neg(a), -a), (g.sub(a, b), a - b)):
            assert result == expected and _canonical(result)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_inverse_of_zero_is_refused(self, zero):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            hs.QQ.inv(zero)
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            hs.QQ.div(1, zero)

    def test_constants_are_shared(self):
        assert hs.QQ.zero is hs.QQ.zero is hs.RATIONALS.zero
        assert hs.QQ.one is hs.QQ.one
        assert (hs.QQ.zero, hs.QQ.one) == (0, 1)
        assert _canonical(hs.QQ.zero) and _canonical(hs.QQ.one)

    @pytest.mark.parametrize("text", ["3", "-3/6", "0"])
    def test_group_parses_to_a_fraction(self, text):
        value = hs.RATIONALS.parse(text)
        assert value == Fraction(text) and _canonical(value)

    @given(_INTEGERS, st.integers(1, 6) | st.integers(2**64, 2**80))
    def test_reader_builds_a_slash_number_in_lowest_terms(self, n, d):
        for text in (f"{n}/{d}", f" {n}/{d} "):
            value, reference = parse_number(text, "n"), Fraction(n, d)
            assert value == reference and _canonical(value)
            assert (hash(value), repr(value)) == (hash(reference), repr(reference))

    @pytest.mark.parametrize("text", ["0/5", "-0/3", "-6/4", "+9/3", f"{2**65 * 3}/6"])
    def test_reader_reduces_zero_negatives_and_large_numerators(self, text):
        n, d = text.split("/")
        value = parse_number(text, "n")
        assert value == Fraction(int(n), int(d)) and _canonical(value)
        assert repr(value) == repr(Fraction(int(n), int(d)))

    @given(_OPERANDS)
    def test_formatters_print_as_str(self, x):
        assert hs.QQ.format(x) == hs.RATIONALS.format(x) == str(x)
        assert hs.QQ.format(Fraction(x)) == str(Fraction(x))


class TestSplitTopLevel:
    """A text with no bracket is split by ``str.split``; it must give the
    pieces the bracket-depth loop gives, empty ones included."""

    @pytest.mark.parametrize("text", ["a++b", "+a", "a+", "+", "", "a + b", "a,b+c"])
    def test_bracket_free_text_splits_as_the_loop(self, text):
        assert _split_top_level(text, "+") == REFERENCE.split_top_level(text, "+")

    @given(st.text("ab+, ", max_size=12), st.sampled_from("+,"))
    def test_bracket_free_text_splits_as_the_loop_sampled(self, text, sep):
        assert _split_top_level(text, sep) == REFERENCE.split_top_level(text, sep)

    def test_brackets_still_nest(self):
        assert _split_top_level("(a,b),{c,d},e", ",") == ["(a,b)", "{c,d}", "e"]
        for bad in ("(a,b", "a)", "}{"):
            with pytest.raises(hs.ParseError, match="unbalanced brackets"):
                _split_top_level(bad, ",")


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
        with pytest.raises(hs.ParseError, match=r"^1/3 has no image in gf\(3\)$"):
            f.coerce(Fraction(1, 3))
        assert f.coerce(Fraction(3, 2)) == 0

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    def test_field_axioms_sampled(self, a, b, c):
        f = hs.PrimeField(13)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        assert f.mul(a, f.one) == a % 13


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _accepted(p):
    try:
        hs.PrimeField(p)
    except ValueError:
        return False
    return True


class TestPrimality:
    BOUND = 3_317_044_064_679_887_385_961_981  # Miller-Rabin to bases 2..41 is exact below

    def test_agrees_with_trial_division(self):
        assert [n for n in range(20_001) if _accepted(n)] == [
            n for n in range(20_001) if _trial_division_prime(n)
        ]

    @pytest.mark.parametrize(
        "n", [561, 2047, 1373653, 25326001, 3215031751, 3825123056546413051]
    )
    def test_strong_pseudoprimes_refused(self, n):
        assert not _accepted(n)

    def test_large_prime_is_quick(self):
        start = time.perf_counter()
        assert hs.field_by_name("prime:100000000000000003").p == 100000000000000003
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n", [BOUND, BOUND + 1, 2**89 - 1])
    def test_bound_refused_with_parse_error(self, n):
        with pytest.raises(hs.ParseError, match="3,317,044,064,679,887,385,961,981"):
            hs.PrimeField(n)


def test_field_by_name():
    assert hs.field_by_name("rationals") is hs.QQ
    assert hs.field_by_name("prime:5") == hs.PrimeField(5)
    with pytest.raises(hs.ParseError):
        hs.field_by_name("prime:6")
    with pytest.raises(hs.ParseError):
        hs.field_by_name("surreal")
