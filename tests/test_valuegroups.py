"""Value groups, the adjoined top element, and their text forms."""

from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs


class TestGroups:
    def test_integer_arithmetic(self):
        g = hs.INTEGERS
        assert g.add(2, 3) == 5
        assert g.neg(4) == -4
        assert g.sub(2, 5) == -3
        assert g.zero == 0
        assert g.compare(1, 2) == -1
        assert g.compare(2, 2) == 0
        assert g.compare(3, 2) == 1

    def test_rational_arithmetic(self):
        g = hs.RATIONALS
        assert g.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
        assert g.compare(Fraction(1, 2), Fraction(2, 3)) == -1
        assert g.parse("5/2") == Fraction(5, 2)
        assert g.format(Fraction(-7, 3)) == "-7/3"

    def test_lex_pair_is_left_dominant(self):
        g = hs.LEX2
        assert g.compare((1, -100), (0, 100)) == 1
        assert g.compare((0, 1), (0, 2)) == -1
        assert g.compare((2, 5), (2, 5)) == 0
        assert g.add((1, 2), (3, -4)) == (4, -2)
        assert g.neg((1, -2)) == (-1, 2)
        assert g.zero == (0, 0)

    def test_lex_pair_text_round_trip(self):
        g = hs.LEX2
        assert g.parse("(1,-2)") == (1, -2)
        assert g.parse(" ( 1 , -2 ) ") == (1, -2)
        assert g.format((1, -2)) == "(1,-2)"

    def test_nested_lex_parse(self):
        g = hs.LexPair(hs.LEX2, hs.INTEGERS)
        assert g.parse("((1,2),3)") == ((1, 2), 3)
        assert g.format(((1, 2), 3)) == "((1,2),3)"

    @pytest.mark.parametrize("bad", ["1,2", "(1)", "(1;2)", "x", "(1,2", "1.5"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(hs.ParseError):
            hs.LEX2.parse(bad)
        with pytest.raises(hs.ParseError):
            hs.INTEGERS.parse("half")

    def test_group_by_name(self):
        assert hs.group_by_name("int") is hs.INTEGERS
        assert hs.group_by_name("rat") is hs.RATIONALS
        assert hs.group_by_name("lex2") is hs.LEX2
        with pytest.raises(hs.ParseError):
            hs.group_by_name("octonions")

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance(self, a, b, c):
        g = hs.INTEGERS
        assert g.compare(a, b) == g.compare(g.add(a, c), g.add(b, c))


_small = st.integers(-4, 4)
NATIVE_PAYLOADS = {
    "int": _small,
    "rat": st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4), _small),
    "lex2": st.tuples(_small, _small),
}


class TestOrderedValue:
    def test_top_element_is_maximal(self):
        assert hs.OrderedValue(10) < hs.INFINITY
        assert hs.INFINITY <= hs.INFINITY
        assert not hs.INFINITY < hs.INFINITY
        assert hs.ov_compare(hs.INFINITY, hs.OrderedValue(10**9)) == 1

    def test_finite_comparisons_follow_payload(self):
        assert hs.OrderedValue(-2) < hs.OrderedValue(5)
        assert hs.OrderedValue(Fraction(1, 2)) < hs.OrderedValue(Fraction(2, 3))
        assert hs.OrderedValue((1, -5)) > hs.OrderedValue((0, 100))
        assert hs.OrderedValue(3) == hs.OrderedValue(3)

    def test_addition_absorbs_top(self):
        assert hs.ov_add(hs.INTEGERS, hs.INFINITY, hs.OrderedValue(3)).is_infinite
        assert hs.ov_add(hs.INTEGERS, hs.OrderedValue(2), hs.OrderedValue(3)) == hs.OrderedValue(5)

    def test_text_round_trip(self):
        assert hs.ov_parse(hs.INTEGERS, "inf").is_infinite
        assert hs.ov_parse(hs.INTEGERS, "-4") == hs.OrderedValue(-4)
        assert hs.ov_format(hs.INTEGERS, hs.INFINITY) == "inf"
        assert hs.ov_format(hs.LEX2, hs.OrderedValue((2, -1))) == "(2,-1)"

    @pytest.mark.parametrize(
        "payloads",
        [(-3, 0, 2), (Fraction(-1, 2), Fraction(0), Fraction(2, 3)), ((0, 5), (1, -5), (1, 0))],
        ids=["int", "rat", "lex2"],
    )
    def test_order_operators_agree_with_ov_compare(self, payloads):
        values = [hs.OrderedValue(p) for p in payloads]
        values += [hs.OrderedValue(payloads[1]), hs.INFINITY, hs.OrderedValue(None)]
        for x in values:
            for y in values:
                c = hs.ov_compare(x, y)
                assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)

    @pytest.mark.parametrize("payload", list(NATIVE_PAYLOADS), ids=list(NATIVE_PAYLOADS))
    @given(data=st.data())
    def test_native_operators_and_sorting_agree_with_ov_compare(self, payload, data):
        # None is the top element, INFINITY itself
        payloads = st.one_of(st.none(), NATIVE_PAYLOADS[payload])
        values = [hs.OrderedValue(p) for p in data.draw(st.lists(payloads, max_size=12))]
        values.append(hs.INFINITY)
        for x in values:
            for y in values:
                c = hs.ov_compare(x, y)
                assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
        by_compare = cmp_to_key(hs.ov_compare)
        assert [id(v) for v in sorted(values)] == [id(v) for v in sorted(values, key=by_compare)]
        assert min(values) is min(values, key=by_compare)
        assert max(values) is max(values, key=by_compare)

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_compare_is_antisymmetric(self, a, b):
        x, y = hs.OrderedValue(a), hs.OrderedValue(b)
        assert hs.ov_compare(x, y) == -hs.ov_compare(y, x)
