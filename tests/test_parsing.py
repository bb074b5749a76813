"""Series text grammar and JSON round-trips, and the text reader and printer
against a plain reference implementation of both."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# -- the text layer against its reference ----------------------------------


class REFERENCE:
    """The series reader and printer in their plain form: every number read
    through ``strip``, a regex and ``Fraction(n, d)``, every text split by
    the bracket-depth loop, each term read by its own function and printed
    by one that tests ``coeff == one`` and ``exponent == zero``.  Only
    ``make_series`` and the fields' ``coerce`` come from the package."""

    NUMBER_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

    @classmethod
    def parse_number(cls, text, what, integer=False):
        m = cls.NUMBER_RE.fullmatch(text.strip())
        if m is None or (integer and m[2] is not None):
            form = "integer" if integer else "integer or integer/positive-integer"
            raise hs.ParseError(f"bad {what} {text!r} (want {form})")
        if m[2] is None:
            return int(m[1])
        if int(m[2]) == 0:
            raise hs.ParseError(f"zero denominator in {what} {text!r}")
        return Fraction(int(m[1]), int(m[2]))

    @staticmethod
    def split_top_level(text, sep):
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(text):
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
                if depth < 0:
                    raise hs.ParseError(f"unbalanced brackets in {text!r}")
            elif ch == sep and depth == 0:
                parts.append(text[start:i])
                start = i + 1
        if depth != 0:
            raise hs.ParseError(f"unbalanced brackets in {text!r}")
        parts.append(text[start:])
        return parts

    @classmethod
    def coefficient(cls, field, text):
        n = cls.parse_number(text, "coefficient")
        try:
            return field.coerce(n)
        except hs.ParseError as e:
            raise hs.ParseError(f"bad coefficient {text!r}: {e}") from None

    @classmethod
    def exponent(cls, group, text):
        if group is hs.INTEGERS:
            return cls.parse_number(text, "integer exponent", integer=True)
        if group is hs.RATIONALS:
            return Fraction(cls.parse_number(text, "rational exponent"))
        text = text.strip()
        parts = cls.split_top_level(text[1:-1], ",") if text[:1] + text[-1:] == "()" else []
        if len(parts) != 2:
            raise hs.ParseError(f"lex pair must be (left,right): {text!r}")
        return (cls.exponent(group.left, parts[0]), cls.exponent(group.right, parts[1]))

    @staticmethod
    def coefficient_text(field, c):
        return str(c) if field is hs.QQ else str(c % field.p)

    @classmethod
    def exponent_text(cls, group, g):
        if group is hs.LEX2:
            return f"({cls.exponent_text(group.left, g[0])},{cls.exponent_text(group.right, g[1])})"
        return str(g)

    @classmethod
    def parse_series(cls, field, group, text):
        if not text.strip():
            raise hs.ParseError("empty series text")
        terms = []
        truncation = hs.INFINITY
        tokens = cls.split_top_level(text, "+")
        for i, raw in enumerate(tokens):
            tok = raw.strip()
            if not tok:
                raise hs.ParseError(f"empty term in {text!r}")
            if tok.startswith("O(") and tok.endswith(")"):
                if i != len(tokens) - 1:
                    raise hs.ParseError("truncation bound must be the last term")
                truncation = hs.OrderedValue(cls.exponent(group, tok[2:-1]))
                continue
            terms.append(cls.parse_term(field, group, tok))
        return hs.make_series(field, group, terms, truncation)

    @classmethod
    def parse_term(cls, field, group, tok):
        if "t^" in tok:
            head, _, exp_text = tok.partition("t^")
            head = head.strip()
            if head == "":
                coeff = field.one
            elif head.endswith("*"):
                coeff = cls.coefficient(field, head[:-1])
            else:
                raise hs.ParseError(f"bad term {tok!r} (want coeff*t^exp or t^exp)")
            return (coeff, cls.exponent(group, exp_text))
        return (cls.coefficient(field, tok), group.zero)

    @classmethod
    def series_to_text(cls, s):
        parts = [cls.term_text(s, c, g) for c, g in s.terms]
        if not parts:
            parts = ["0"]
        if not s.truncation.is_infinite:
            parts.append(f"O({cls.exponent_text(s.group, s.truncation.finite)})")
        return " + ".join(parts)

    @classmethod
    def term_text(cls, s, coeff, exponent):
        if exponent == s.group.zero:
            return cls.coefficient_text(s.field, coeff)
        body = f"t^{cls.exponent_text(s.group, exponent)}"
        if coeff == s.field.one:
            return body
        return f"{cls.coefficient_text(s.field, coeff)}*{body}"


TEXT_FIELDS = [hs.QQ, hs.PrimeField(5), hs.PrimeField(7)]
SPACE = st.sampled_from(["", "", " ", "  ", "\t"])
# the grammar's alphabet, space included
ALPHABET = "0123456789+-*/^tO(), "


# coefficient text: an integer, a few beyond 2**64, or n/d of those
_INTEGERS = st.integers(-9, 9) | st.integers(2**64, 2**66) | st.integers(-(2**66), -(2**64))
COEFFICIENTS = _INTEGERS.map(str) | st.builds("{}/{}".format, _INTEGERS, st.integers(1, 12))


def _exponents(group):
    if group is hs.INTEGERS:
        return st.integers(-4, 4).map(str)
    if group is hs.RATIONALS:
        return st.integers(-4, 4).map(str) | st.builds(
            "{}/{}".format, st.integers(-8, 8), st.integers(1, 4)
        )
    pair = st.tuples(SPACE, _exponents(group.left), SPACE, SPACE, _exponents(group.right), SPACE)
    return pair.map(lambda p: "({}{}{},{}{}{})".format(*p))


@st.composite
def series_texts(draw):
    """A field, a group and a text of the grammar over them: terms in any
    order, repeated exponents, zero coefficients, bare ``t^e`` terms and
    constants, whitespace around every token and an optional bound."""
    field = draw(st.sampled_from(TEXT_FIELDS))
    group = draw(st.sampled_from([hs.INTEGERS, hs.RATIONALS, hs.LEX2]))
    exponents = _exponents(group)

    def space():
        return draw(SPACE)

    terms = []
    for kind in draw(st.lists(st.sampled_from(["scaled", "bare", "constant"]), max_size=8)):
        if kind == "constant":
            terms.append(draw(COEFFICIENTS))
        else:
            coeff = f"{draw(COEFFICIENTS)}{space()}*{space()}" if kind == "scaled" else ""
            terms.append(f"{coeff}t^{space()}{draw(exponents)}")
    if draw(st.booleans()):
        terms.append(f"O({space()}{draw(exponents)}{space()})")
    text = space() + "".join(f"{space()}+{space()}{t}" if i else t for i, t in enumerate(terms))
    return field, group, text + space()


@st.composite
def mutated_texts(draw):
    """A drawn text with one character inserted, deleted or replaced by one
    of the grammar's alphabet."""
    field, group, text = draw(series_texts())
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(ALPHABET))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        text = text[:at] + char + text[at:]
    else:
        text = text[:at] + (char if edit == "replace" else "") + text[at + 1 :]
    return field, group, text


def _read(parse, field, group, text):
    try:
        return parse(field, group, text)
    except Exception as e:  # the kind and message are compared, whatever they are
        return (type(e), str(e))


def _assert_reads_as_the_reference(field, group, text):
    want = _read(REFERENCE.parse_series, field, group, text)
    got = _read(hs.parse_series, field, group, text)
    if isinstance(want, hs.Series):
        assert isinstance(got, hs.Series), got
        assert got.field is field and got.group is group
        assert got == want and repr(got) == repr(want)
        assert hs.series_to_text(got) == REFERENCE.series_to_text(got)
    else:
        assert got == want


class TestAgainstReference:
    @given(series_texts())
    def test_valid_texts_read_and_print_as_the_reference(self, case):
        _assert_reads_as_the_reference(*case)

    @given(mutated_texts())
    def test_mutated_texts_read_or_fail_as_the_reference(self, case):
        _assert_reads_as_the_reference(*case)

    @pytest.mark.parametrize(
        "text",
        [
            "O(2) + t^3",
            "t^1 + O(t^2) + 3",
            "t^1 + 2*O(3)",
            "bad + O(x)",
            "1/0 + 2*t^1",
            "t^(1,2",
            "(1) + t^2)",
            "3 *t^2 + t^ 4 + -1/2 * t^1",
        ],
    )
    def test_edge_texts_read_as_the_reference(self, text):
        for field in TEXT_FIELDS:
            for group in (hs.INTEGERS, hs.RATIONALS, hs.LEX2):
                _assert_reads_as_the_reference(field, group, text)
