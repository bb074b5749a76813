"""Series text grammar and JSON round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given

import hahnsolve as hs

from .conftest import QZ, F5Z, exact_series, truncated_series

OV = hs.OrderedValue


def parse_qz(text):
    return hs.parse_series(hs.QQ, hs.INTEGERS, text)


class TestParse:
    def test_basic_terms(self):
        s = parse_qz("3*t^-2 + 1/2*t^0 + t^5")
        assert s == QZ.series([(3, -2), (Fraction(1, 2), 0), (1, 5)])

    def test_whitespace_insignificant(self):
        assert parse_qz("3*t^-2+1/2*t^0+t^5") == parse_qz(" 3*t^-2 +  1/2*t^0 + t^5 ")

    def test_bare_coefficient_is_exponent_zero(self):
        assert parse_qz("7") == QZ.series([(7, 0)])
        assert parse_qz("-7/3") == QZ.series([(Fraction(-7, 3), 0)])

    def test_zero_series(self):
        assert parse_qz("0") == QZ.zero
        assert parse_qz("0 + O(5)") == QZ.series([], OV(5))

    def test_truncation_suffix(self):
        s = parse_qz("t^1 + O(4)")
        assert s.truncation == OV(4)
        assert s.support == (1,)

    def test_unsorted_and_duplicate_input_normalized(self):
        assert parse_qz("t^5 + 3*t^-2 + 2*t^5") == QZ.series([(3, -2), (3, 5)])

    def test_rational_exponents(self):
        s = hs.parse_series(hs.QQ, hs.RATIONALS, "t^5/2 + 2*t^-1/3")
        assert s.support == (Fraction(-1, 3), Fraction(5, 2))

    def test_lex_exponents(self):
        s = hs.parse_series(hs.QQ, hs.LEX2, "t^(1,-2) + 3*t^(0,4) + O((2,0))")
        assert s.support == ((0, 4), (1, -2))
        assert s.truncation == OV((2, 0))

    def test_prime_field_coefficients(self):
        s = hs.parse_series(hs.PrimeField(5), hs.INTEGERS, "7*t^1 + 3/4*t^2")
        assert s.coefficient(1) == 2
        assert s.coefficient(2) == F5Z.field.div(3, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "t^",
            "x + t^2",
            "1.5*t^2",
            "t^2 - 3",
            "3**t^2",
            "t^2 + + t^3",
            "O(2) + t^3",
            "(1,2)",
            "1/0",
            "t^t",
        ],
    )
    def test_rejects_bad_text(self, bad):
        with pytest.raises(hs.ParseError):
            parse_qz(bad)


class TestPrint:
    def test_canonical_form(self):
        s = QZ.series([(3, -2), (Fraction(1, 2), 0), (1, 5)])
        assert hs.series_to_text(s) == "3*t^-2 + 1/2 + t^5"

    def test_zero_forms(self):
        assert hs.series_to_text(QZ.zero) == "0"
        assert hs.series_to_text(QZ.series([], OV(2))) == "0 + O(2)"

    def test_unit_coefficient_omitted(self):
        assert hs.series_to_text(QZ.series([(1, 3)])) == "t^3"
        assert hs.series_to_text(QZ.series([(-1, 3)])) == "-1*t^3"

    def test_truncation_printed_last(self):
        s = QZ.series([(1, 1)], OV(4))
        assert hs.series_to_text(s) == "t^1 + O(4)"

    @given(exact_series())
    def test_round_trip_exact(self, s):
        assert parse_qz(hs.series_to_text(s)) == s

    @given(truncated_series())
    def test_round_trip_truncated(self, s):
        assert parse_qz(hs.series_to_text(s)) == s


class TestJson:
    def test_dict_form(self):
        s = QZ.series([(3, -2), (1, 5)], OV(9))
        d = hs.series_to_json_dict(s)
        assert d == {"terms": [["3", "-2"], ["1", "5"]], "truncation": "9"}
        assert hs.series_from_json_dict(hs.QQ, hs.INTEGERS, d) == s

    def test_exact_marker(self):
        assert hs.series_to_json_dict(QZ.zero)["truncation"] == "inf"

    def test_text_round_trip(self):
        s = QZ.series([(Fraction(-7, 3), 0), (1, 2)], OV(4))
        assert hs.series_from_json(hs.QQ, hs.INTEGERS, hs.series_to_json(s)) == s

    def test_bad_json_rejected(self):
        with pytest.raises(hs.ParseError):
            hs.series_from_json(hs.QQ, hs.INTEGERS, "{not json")
        with pytest.raises(hs.ParseError):
            hs.series_from_json_dict(hs.QQ, hs.INTEGERS, {"terms": [["1"]], "truncation": "inf"})
        with pytest.raises(hs.ParseError):
            hs.series_from_json_dict(hs.QQ, hs.INTEGERS, {"truncation": "inf"})

    @pytest.mark.parametrize(
        "text",
        [
            '{"terms": [], "truncation": 5}',
            '{"terms": [[1, 2]], "truncation": "inf"}',
            '{"terms": 5, "truncation": "inf"}',
        ],
    )
    def test_wrong_shape_json_is_a_parse_error(self, text):
        with pytest.raises(hs.ParseError):
            hs.series_from_json(hs.QQ, hs.INTEGERS, text)

    @pytest.mark.parametrize(
        "group, terms, truncation",
        [
            (hs.INTEGERS, [(Fraction(-7, 3), -2), (1, 0)], "5"),
            (hs.RATIONALS, [(2, Fraction(-1, 2)), (Fraction(1, 4), Fraction(3, 2))], "7/3"),
            (hs.LEX2, [(3, (-1, 4)), (-1, (0, 0)), (5, (1, -2))], "(2,0)"),
            (hs.LEX2, [(1, (0, 1))], "inf"),
        ],
    )
    def test_round_trip_per_group(self, group, terms, truncation):
        s = hs.SeriesSpace(hs.QQ, group).series(terms, hs.ov_parse(group, truncation))
        d = hs.series_to_json_dict(s)
        assert d["truncation"] == truncation
        assert hs.series_from_json_dict(hs.QQ, group, d) == s
        assert hs.series_from_json(hs.QQ, group, hs.series_to_json(s)) == s

    def test_padded_inf_reads_as_exact(self):
        data = {"terms": [["1", "2"]], "truncation": " inf "}
        assert hs.series_from_json_dict(hs.QQ, hs.INTEGERS, data).is_exact

    @given(truncated_series())
    def test_json_round_trip_property(self, s):
        assert hs.series_from_json(hs.QQ, hs.INTEGERS, hs.series_to_json(s)) == s


# -- the one number grammar ------------------------------------------------

F7 = hs.PrimeField(7)
HALVES = [Fraction(n, 2) for n in range(-20, 21)]


def _json_series(group, term):
    return hs.series_from_json_dict(hs.QQ, group, {"terms": [term], "truncation": "inf"})


def _set_member(text):
    sub = hs.parse_subgroup(hs.QQ, hs.RATIONALS, "set:{" + text + "}")
    return next(g for g in HALVES if sub.pattern(g))


def _mod_residue(text):
    sub = hs.parse_subgroup(hs.QQ, hs.INTEGERS, f"mod:7:{text}")
    return next(g for g in range(7) if sub.pattern(g))


def _mod_modulus(text):
    sub = hs.parse_subgroup(hs.QQ, hs.INTEGERS, f"mod:{text}:0")
    return next(g for g in range(1, 20) if sub.pattern(g))


# the documented forms, as every reader is given them
FORMS = ("-3", "+3", "007", "5/2", " 2 ")
R = hs.ParseError
HALF = Fraction(5, 2)

# reader -> (read, what it makes of each of FORMS; ParseError where it refuses)
READERS = {
    # '+' separates terms, so series text has no signed-plus numbers
    "series coefficient": (
        lambda t: parse_qz(f"{t}*t^1").coefficient(1), (-3, R, 7, HALF, 2)
    ),
    "bare series coefficient": (lambda t: parse_qz(t).coefficient(0), (-3, R, 7, HALF, 2)),
    "JSON coefficient": (
        lambda t: _json_series(hs.INTEGERS, [t, "1"]).coefficient(1), (-3, 3, 7, HALF, 2)
    ),
    "GF(7) coefficient": (F7.parse, (4, 3, 0, 6, 2)),
    "int exponent": (hs.INTEGERS.parse, (-3, 3, 7, R, 2)),
    "rat exponent": (hs.RATIONALS.parse, (-3, 3, 7, HALF, 2)),
    "series exponent": (
        lambda t: hs.parse_series(hs.QQ, hs.RATIONALS, f"t^{t}").support[0],
        (-3, R, 7, HALF, 2),
    ),
    "JSON exponent": (
        lambda t: _json_series(hs.RATIONALS, ["1", t]).support[0], (-3, 3, 7, HALF, 2)
    ),
    "lex pair": (
        lambda t: hs.LEX2.parse(f"({t},{t})"), ((-3, -3), (3, 3), (7, 7), R, (2, 2))
    ),
    "--alpha / --precision": (
        lambda t: hs.ov_parse(hs.RATIONALS, t).finite, (-3, 3, 7, HALF, 2)
    ),
    "set:{} member": (_set_member, (-3, 3, 7, HALF, 2)),
    "mod: residue": (_mod_residue, (4, 3, 0, R, 2)),
    "mod: modulus": (_mod_modulus, (R, 3, 7, R, 2)),
    "prime:": (lambda t: hs.field_by_name(f"prime:{t}").p, (R, 3, 7, R, 2)),
    "derivation table": (
        lambda t: hs.parse_derivation(hs.QQ, hs.INTEGERS, f"d:1={t}").scale(1),
        (-3, 3, 7, HALF, 2),
    ),
}

REFUSED = ("1.5", "1e1", "1_0", "\u0663", "1/0", "1/-2", "(1,2,3)")


class TestNumberGrammar:
    @pytest.mark.parametrize(
        "reader,text,expected",
        [
            (name, text, expected)
            for name, (_, results) in READERS.items()
            for text, expected in zip(FORMS, results)
        ],
    )
    def test_documented_forms(self, reader, text, expected):
        read = READERS[reader][0]
        if expected is R:
            with pytest.raises(hs.ParseError):
                read(text)
        else:
            assert read(text) == expected

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("text", REFUSED)
    def test_lenient_forms_refused(self, reader, text):
        with pytest.raises(hs.ParseError):
            READERS[reader][0](text)

    def test_reader_reduces_and_names_the_number(self):
        from hahnsolve.fields import parse_number

        assert parse_number(" -007 ", "n") == -7
        assert parse_number("+10/4", "n") == Fraction(5, 2)
        with pytest.raises(hs.ParseError, match="zero denominator"):
            parse_number("3/0", "n")
        with pytest.raises(hs.ParseError, match=r"^bad exponent '5/2' \(want integer\)$"):
            parse_number("5/2", "exponent", integer=True)
