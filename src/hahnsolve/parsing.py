"""Text and JSON round-trip for series.

Grammar (whitespace insignificant):

    series := term ('+' term)* ['+' 'O(' exp ')']
    term   := coeff '*' 't^' exp | 't^' exp | coeff
    coeff  := number
    exp    := number ('/' refused over int) | '(' exp ',' exp ')' over lex pairs
    number := [+-]?[0-9]+(/[0-9]+)?   ASCII digits, nonzero denominator

Every number (coefficient, scalar exponent, modulus), in text and in JSON,
is read by ``fields.parse_number``, so ``1.5``, ``1e1``, ``1_0`` and
non-ASCII digits are refused.  The printer emits a canonical form: terms
ascending, a unit coefficient dropped before ``t^``, exponent-zero terms
printed as bare coefficients, and the bound last.  Every printed series
re-parses to an equal series.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .fields import CoefficientField, _split_top_level
from .series import Series, make_series
from .valuegroups import INFINITY, OrderedValue, ValueGroup


def parse_series(field: CoefficientField, group: ValueGroup, text: str) -> Series:
    """Parse the series grammar; raises ``ParseError`` on any deviation."""
    if not text.strip():
        raise ParseError("empty series text")
    terms = []
    truncation = INFINITY
    tokens = _split_top_level(text, "+")
    for i, raw in enumerate(tokens):
        tok = raw.strip()
        if not tok:
            raise ParseError(f"empty term in {text!r}")
        if tok.startswith("O(") and tok.endswith(")"):
            if i != len(tokens) - 1:
                raise ParseError("truncation bound must be the last term")
            truncation = OrderedValue(group.parse(tok[2:-1]))
            continue
        terms.append(_parse_term(field, group, tok))
    return make_series(field, group, terms, truncation)


def _parse_term(field: CoefficientField, group: ValueGroup, tok: str):
    if "t^" in tok:
        head, _, exp_text = tok.partition("t^")
        head = head.strip()
        if head == "":
            coeff = field.one
        elif head.endswith("*"):
            coeff = field.parse(head[:-1])
        else:
            raise ParseError(f"bad term {tok!r} (want coeff*t^exp or t^exp)")
        return (coeff, group.parse(exp_text))
    return (field.parse(tok), group.zero)


def series_to_text(s: Series) -> str:
    parts = [_term_text(s, c, g) for c, g in s.terms]
    if not parts:
        parts = ["0"]
    if not s.truncation.is_infinite:
        parts.append(f"O({s.group.format(s.truncation.finite)})")
    return " + ".join(parts)


def _term_text(s: Series, coeff, exponent) -> str:
    if exponent == s.group.zero:
        return s.field.format(coeff)
    body = f"t^{s.group.format(exponent)}"
    if coeff == s.field.one:
        return body
    return f"{s.field.format(coeff)}*{body}"


def series_to_json_dict(s: Series) -> dict:
    return {
        "terms": [[s.field.format(c), s.group.format(g)] for c, g in s.terms],
        "truncation": "inf" if s.truncation.is_infinite else s.group.format(s.truncation.finite),
    }


def series_from_json_dict(field: CoefficientField, group: ValueGroup, data: dict) -> Series:
    try:
        raw_terms = data["terms"]
        raw_trunc = data["truncation"]
    except (TypeError, KeyError) as e:
        raise ParseError(f"series JSON needs 'terms' and 'truncation': {e}") from None
    if not isinstance(raw_terms, list) or not isinstance(raw_trunc, str):
        raise ParseError("series JSON needs a list of terms and a string truncation")
    truncation = INFINITY if raw_trunc == "inf" else OrderedValue(group.parse(raw_trunc))
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
