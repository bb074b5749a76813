"""Generalized power series with exact coefficients and a precision cutoff.

A series is a finite sorted list of nonzero terms ``c * t^g`` with exponents
in an ordered value group, together with a truncation bound: coefficients at
exponents with value at or above the bound are unknown.  An infinite bound
means the series is exact.  Truncating at ``alpha`` is the quotient map onto
the group modulo the ball of radius ``alpha`` around zero, so precision is an
algebraic notion here, not a floating-point afterthought.

The canonical valuation of a series is the least exponent of its support.  A
series with empty support and a finite bound has no determined valuation; the
element is only known to lie in the ball of radius ``truncation`` around zero,
and asking for its valuation raises ``IndeterminateValuation`` carrying that
lower bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptySupport, IndeterminateValuation
from .fields import CoefficientField, FieldElement
from .ultrametric import ValuedGroup
from .valuegroups import (
    INFINITY,
    GroupElement,
    OrderedValue,
    ValueGroup,
    _set_finite,
    ov_add,
)


class Term(NamedTuple):
    coefficient: FieldElement
    exponent: GroupElement


# ``_term((c, g))`` is ``Term(c, g)`` built by ``tuple.__new__`` in C, without
# the named tuple's Python-level ``__new__``.
_term = partial(tuple.__new__, Term)


@dataclass(frozen=True, slots=True)
class Series:
    """Finite-support series over ``field`` with exponents in ``group``.

    Invariants: no stored coefficient is zero, every stored exponent has value
    strictly below ``truncation``, and exponents are strictly ascending.
    A direct construction checks all three and raises ``ValueError`` if one
    fails.  ``make_series`` (and the ``SeriesSpace`` helpers) normalizes an
    arbitrary term list; it, the arithmetic below (``add``, ``sub``, ``neg``,
    ``scale``, ``truncate``, ``SeriesSpace.zero`` and ``SeriesSpace.total``),
    ``derive`` under an increasing shift, ``asymptotic_section``,
    ``SupportSubgroup.part`` (the leading term, as is) and the decomposition
    section's zeros build their results without the check, because the
    invariants hold by construction.  Every ``Term`` they build is made by
    ``tuple.__new__`` (``_term``), so no Python-level ``__new__`` runs.

    ``valuation`` raises ``IndeterminateValuation`` for a series that is zero
    only to its precision; ``valuation_lower_bound`` is the way to read the
    certified bound, and never raises.

    The class is slotted: an instance has its four fields and no
    ``__dict__``, so every attribute read is a slot read, and the unchecked
    builds set the slots directly (``_trusted``).
    """

    field: CoefficientField
    group: ValueGroup
    terms: tuple[Term, ...]
    truncation: OrderedValue = INFINITY

    def __post_init__(self):
        bound = self.truncation.finite
        prev = None
        for c, g in self.terms:
            if self.field.is_zero(c):
                raise ValueError(f"zero coefficient stored at exponent {g!r}")
            if bound is not None and g >= bound:
                raise ValueError(f"exponent {g!r} at or above truncation")
            if prev is not None and prev >= g:
                raise ValueError("exponents not strictly ascending")
            prev = g

    # -- structure ---------------------------------------------------------

    @property
    def support(self) -> tuple[GroupElement, ...]:
        return tuple(t.exponent for t in self.terms)

    @property
    def is_exact(self) -> bool:
        return self.truncation.finite is None

    def coefficient(self, exponent: GroupElement) -> FieldElement:
        for t in self.terms:
            if t.exponent == exponent:
                return t.coefficient
        return self.field.zero

    def valuation(self) -> OrderedValue:
        if self.terms:
            v = _new(OrderedValue)  # built as ``_trusted`` builds a series
            _set_finite(v, self.terms[0].exponent)
            return v
        if self.truncation.finite is None:
            return INFINITY
        raise IndeterminateValuation(
            "series is zero to its precision; valuation only bounded below",
            bound=self.truncation,
        )

    def valuation_lower_bound(self) -> OrderedValue:
        """Greatest lower bound the data certifies for the valuation: the
        valuation when it is determined, else the truncation."""
        if not self.terms:
            return self.truncation
        v = _new(OrderedValue)
        _set_finite(v, self.terms[0].exponent)
        return v

    def leading_term(self) -> Term:
        if not self.terms:
            raise EmptySupport("series has no determined terms")
        return self.terms[0]

    # -- arithmetic --------------------------------------------------------

    def _like(self, other: "Series") -> None:
        field, group = other.field, other.group  # identity first: the usual case
        if (self.field is not field and self.field != field) or (
            self.group is not group and self.group != group
        ):
            raise ValueError("series live over different fields or value groups")

    def add(self, other: "Series") -> "Series":
        return _merge(self, other, negate=False)

    def neg(self) -> "Series":
        return _trusted(
            self.field,
            self.group,
            tuple([_term((self.field.neg(c), g)) for c, g in self.terms]),
            self.truncation,
        )

    def sub(self, other: "Series") -> "Series":
        return _merge(self, other, negate=True)

    def scale(self, c: FieldElement) -> "Series":
        """``c`` times the series: the term order is kept and zero products
        dropped, which a non-canonical scalar such as ``7`` over GF(7) makes."""
        field = self.field
        mul, is_zero = field.mul, field.is_zero
        products = [(mul(c, a), g) for a, g in self.terms]
        return _trusted(
            field,
            self.group,
            tuple([_term(t) for t in products if not is_zero(t[0])]),
            self.truncation,
        )

    def mul(self, other: "Series") -> "Series":
        self._like(other)
        mul, add = self.field.mul, self.group.add
        products = [(mul(c1, c2), add(g1, g2)) for c1, g1 in self.terms for c2, g2 in other.terms]
        return make_series(self.field, self.group, products, self._mul_truncation(other))

    def _mul_truncation(self, other: "Series") -> OrderedValue:
        # Each factor's unknown tail enters the product at value at least
        # trunc(side) + v(other side), where a bound on v suffices (a factor
        # zero to its precision has one); an exact factor contributes no tail.
        sides = []
        if self.truncation.finite is not None:
            sides.append(ov_add(self.group, self.truncation, other.valuation_lower_bound()))
        if other.truncation.finite is not None:
            sides.append(ov_add(self.group, other.truncation, self.valuation_lower_bound()))
        return min(sides) if sides else INFINITY

    # -- precision ---------------------------------------------------------

    def truncate(self, alpha: OrderedValue) -> "Series":
        """Quotient map modulo the ball of radius ``alpha`` around zero."""
        truncation = min(self.truncation, alpha)
        return _trusted(
            self.field, self.group, _below(self.terms, truncation), truncation
        )

    def quotient_valuation(self, alpha: OrderedValue) -> OrderedValue:
        """Valuation induced on the quotient modulo the radius-``alpha`` ball.

        The class of ``s`` gets value ``v(s)`` when that lies below ``alpha``
        and the top value otherwise (the class is zero in the quotient).  The
        answer only needs the valuation's lower bound, so classes that are
        zero at sufficient precision are decided without an exact valuation.
        """
        if self.valuation_lower_bound() >= alpha:
            return INFINITY
        return self.valuation()

    def __str__(self) -> str:
        from .parsing import series_to_text

        return series_to_text(self)


def make_series(
    field: CoefficientField,
    group: ValueGroup,
    terms: Iterable[tuple[FieldElement, GroupElement]],
    truncation: OrderedValue = INFINITY,
) -> Series:
    """Normalize a raw term list into a valid ``Series``.

    Duplicate exponents are summed, zero coefficients dropped, and terms at or
    above the truncation bound discarded.  Each exponent is hashed twice, by
    the lookup and the store, and the kept pairs are sorted by exponent.
    """
    add, is_zero = field.add, field.is_zero
    acc: dict[GroupElement, FieldElement] = {}
    for c, g in terms:
        prev = acc.get(g)
        acc[g] = c if prev is None else add(prev, c)
    bound = truncation.finite
    kept = [(c, g) for g, c in acc.items() if not is_zero(c) and (bound is None or g < bound)]
    kept.sort(key=_exponent)
    return _trusted(field, group, tuple(map(_term, kept)), truncation)


_exponent = itemgetter(1)


def _trusted(
    field: CoefficientField,
    group: ValueGroup,
    terms: tuple[Term, ...],
    truncation: OrderedValue,
) -> Series:
    """A ``Series`` from terms that already meet its invariants, unchecked:
    the four slots are set through their member descriptors, bound below,
    so no ``__init__`` or other Python-level call runs."""
    s = _new(Series)
    _set_field(s, field)
    _set_group(s, group)
    _set_terms(s, terms)
    _set_truncation(s, truncation)
    return s


_new = object.__new__
_set_field = Series.field.__set__
_set_group = Series.group.__set__
_set_terms = Series.terms.__set__
_set_truncation = Series.truncation.__set__


def _below(terms: tuple[Term, ...], truncation: OrderedValue) -> tuple[Term, ...]:
    """The sorted ``terms`` whose exponents lie strictly below ``truncation``."""
    bound = truncation.finite
    return terms if bound is None else terms[: bisect_left(terms, bound, key=_exponent)]


def _merge(x: Series, y: Series, negate: bool) -> Series:
    """``x + y`` (``x - y`` when ``negate``) as one merge of the sorted terms.

    A one-term ``y`` at the leading exponent of ``x``, the shape of every
    correction step's image, is tried first, and only over the very field
    and value group objects of ``x``, so it needs no ``_like``: it is added
    at the head with one exponent comparison, one coefficient sum (of the
    negated coefficient for a subtrahend) and its zero test, and the rest of
    ``x`` as one slice.  Otherwise the operands are checked alike, and an
    empty operand whose truncation is not below the other's is the identity:
    the other operand (negated for ``0 - y``) is returned as is.  Else the
    merge walks the shorter operand and places each of its exponents in the
    longer one (past the end or at the cursor, else by bisection), so the
    runs in between are copied as slices; only coefficients at shared
    exponents are added and tested for zero.  A subtrahend is negated first.
    The tail after the last placed term is one slice.  Either way the result
    is cut at the smaller truncation, compared only when neither side is exact.
    """
    field, xs, ys = x.field, x.terms, y.terms
    same_kind = y.field is field and y.group is x.group
    if same_kind and len(ys) == 1 and xs and ys[0][1] == xs[0][1]:
        (a, g), (b, _) = xs[0], ys[0]
        c = field.add(a, field.neg(b) if negate else b)
        terms = xs[1:] if field.is_zero(c) else (_term((c, g)),) + xs[1:]
    else:
        x._like(y)
        if not ys and (y.truncation.finite is None or x.truncation <= y.truncation):
            return x
        if not xs and (x.truncation.finite is None or y.truncation <= x.truncation):
            return y.neg() if negate else y
        terms = _walk(field, xs, ys, negate)
    xt, yt = x.truncation, y.truncation
    truncation = xt if yt.finite is None else yt if xt.finite is None else min(xt, yt)
    if truncation.finite is not None:
        terms = _below(terms, truncation)
    return _trusted(field, x.group, terms, truncation)


def _walk(
    field: CoefficientField, xs: tuple[Term, ...], ys: tuple[Term, ...], negate: bool
) -> tuple[Term, ...]:
    """The general case of ``_merge``: the sorted terms of ``x + y``."""
    ys = tuple([_term((field.neg(c), g)) for c, g in ys]) if negate else ys
    short, long = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
    out: list[Term] = []
    i = 0
    for term in short:
        g = term.exponent
        if g > long[-1].exponent:
            j = len(long)
        else:
            j = i if g <= long[i].exponent else bisect_left(long, g, i, key=_exponent)
        out += long[i:j]
        if j < len(long) and long[j].exponent == g:
            c = field.add(term.coefficient, long[j].coefficient)
            if not field.is_zero(c):
                out.append(_term((c, g)))
            j += 1
        else:
            out.append(term)
        i = j
    return tuple(out) + long[i:] if out else long[i:]


@dataclass(frozen=True)
class SeriesSpace(ValuedGroup):
    """The valued additive group of series over a fixed field and value group."""

    field: CoefficientField
    group: ValueGroup

    @property
    def zero(self) -> Series:
        return _trusted(self.field, self.group, (), INFINITY)

    def add(self, a: Series, b: Series) -> Series:
        return _merge(a, b, negate=False)

    def neg(self, a: Series) -> Series:
        return a.neg()

    def sub(self, a: Series, b: Series) -> Series:
        return _merge(a, b, negate=True)

    def total(self, parts: Sequence[Series]) -> Series:
        """The sum of ``parts``.  When their terms strictly ascend from part
        to part, as an in-order solve's corrections do, they are joined and
        cut at the least finite truncation, unchecked and with no comparison
        for an exact part; otherwise ``add`` is folded over them."""
        field, group = self.field, self.group
        terms: list[Term] = []
        truncation = INFINITY
        for part in parts:
            if part.field is not field or part.group is not group:
                self.zero._like(part)  # refuses another field or value group
            if part.terms:
                if terms and not terms[-1].exponent < part.terms[0].exponent:
                    return super().total(parts)
                terms += part.terms
            if part.truncation.finite is not None and part.truncation < truncation:
                truncation = part.truncation
        return _trusted(field, group, _below(tuple(terms), truncation), truncation)

    # the series' own methods, so a read through the space enters one frame
    valuation = staticmethod(Series.valuation)
    valuation_lower_bound = staticmethod(Series.valuation_lower_bound)

    def monomial(self, coefficient, exponent: GroupElement) -> Series:
        return self.series([(coefficient, exponent)])

    def series(
        self,
        pairs: Iterable[tuple[FieldElement, GroupElement]],
        truncation: OrderedValue = INFINITY,
    ) -> Series:
        """Build from (coefficient, exponent) pairs.  Each coefficient, an
        ``int`` or a ``Fraction`` (as every field element here is), goes
        through ``field.coerce``: ``1/2`` is ``4`` over GF(7)."""
        coerce = self.field.coerce
        return make_series(
            self.field, self.group, [(coerce(c), g) for c, g in pairs], truncation
        )
