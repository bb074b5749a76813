"""Text and JSON round-trip for series.

Grammar (whitespace insignificant):

    series := term ('+' term)* ['+' 'O(' exp ')']
    term   := coeff '*' 't^' exp | 't^' exp | coeff
    coeff  := number
    exp    := number ('/' refused over int) | '(' exp ',' exp ')' over lex pairs
    number := [+-]?[0-9]+(/[0-9]+)?   ASCII digits, nonzero denominator

Every number (coefficient, scalar exponent, modulus), in text and in JSON,
is read by ``fields.parse_number``, so ``1.5``, ``1e1``, ``1_0`` and
non-ASCII digits are refused; a ``/`` number is built in lowest terms by the
rational kernel, not by ``Fraction``'s constructor.  The printer emits a
canonical form: terms ascending, a unit coefficient dropped before ``t^``,
exponent-zero terms printed as bare coefficients, and the bound last.  It
tells the unit and zero cases by the formatted text, which formats make
unambiguous.  Every printed series re-parses to an equal series.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .fields import CoefficientField, _split_top_level
from .series import Series, make_series
from .valuegroups import INFINITY, OrderedValue, ValueGroup, ov_format, ov_parse


def parse_series(field: CoefficientField, group: ValueGroup, text: str) -> Series:
    """Parse the series grammar; raises ``ParseError`` on any deviation."""
    if not text.strip():
        raise ParseError("empty series text")
    tokens = _split_top_level(text, "+")
    last = tokens[-1].strip()
    bound = None
    if last.startswith("O(") and last.endswith(")"):
        bound = last[2:-1]  # read after the terms, so an earlier bad term is reported first
        tokens.pop()
    parse_coeff, parse_exp, one, zero = field.parse, group.parse, field.one, group.zero
    terms = []
    for raw in tokens:
        tok = raw.strip()
        if tok.startswith("O(") and tok.endswith(")"):
            raise ParseError("truncation bound must be the last term")
        head, t_hat, exp_text = tok.partition("t^")
        if not t_hat:
            if not tok:
                raise ParseError(f"empty term in {text!r}")
            terms.append((parse_coeff(tok), zero))
            continue
        head = head.rstrip()
        if not head:
            coeff = one
        elif head.endswith("*"):
            coeff = parse_coeff(head[:-1])
        else:
            raise ParseError(f"bad term {tok!r} (want coeff*t^exp or t^exp)")
        terms.append((coeff, parse_exp(exp_text)))
    truncation = INFINITY if bound is None else OrderedValue(parse_exp(bound))
    return make_series(field, group, terms, truncation)


def series_to_text(s: Series) -> str:
    """The canonical text.  Formats are injective (every printed series
    re-parses to an equal one), so a unit coefficient and the zero exponent
    are recognised by their formatted text."""
    field, group = s.field, s.group
    format_coeff, format_exp = field.format, group.format
    unit, origin = format_coeff(field.one), format_exp(group.zero)
    parts = []
    for c, g in s.terms:
        coeff, exp = format_coeff(c), format_exp(g)
        if exp == origin:
            parts.append(coeff)
        elif coeff == unit:
            parts.append(f"t^{exp}")
        else:
            parts.append(f"{coeff}*t^{exp}")
    if not parts:
        parts = ["0"]
    if s.truncation.finite is not None:
        parts.append(f"O({format_exp(s.truncation.finite)})")
    return " + ".join(parts)


def series_to_json_dict(s: Series) -> dict:
    return {
        "terms": [[s.field.format(c), s.group.format(g)] for c, g in s.terms],
        "truncation": ov_format(s.group, s.truncation),
    }


def series_from_json_dict(field: CoefficientField, group: ValueGroup, data: dict) -> Series:
    try:
        raw_terms = data["terms"]
        raw_trunc = data["truncation"]
    except (TypeError, KeyError) as e:
        raise ParseError(f"series JSON needs 'terms' and 'truncation': {e}") from None
    if not isinstance(raw_terms, list) or not isinstance(raw_trunc, str):
        raise ParseError("series JSON needs a list of terms and a string truncation")
    truncation = ov_parse(group, raw_trunc)
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            isinstance(x, str) for x in entry
        ):
            raise ParseError(f"series JSON term must be [coeff, exp] strings, got {entry!r}")
        terms.append((field.parse(entry[0]), group.parse(entry[1])))
    return make_series(field, group, terms, truncation)


def series_to_json(s: Series) -> str:
    return json.dumps(series_to_json_dict(s), separators=(", ", ": "))


def series_from_json(field: CoefficientField, group: ValueGroup, text: str) -> Series:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad series JSON: {e}") from None
    return series_from_json_dict(field, group, data)
