"""Pseudo-direct sums of series subgroups and decomposition by correction.

A tuple (a_1, ..., a_n) from subgroups A_1, ..., A_n is a pseudo-direct
witness for ``a`` when

    v(sum a_i) = min v(a_i)    and    v(a - sum a_i) > v(a).

The product group carries the minimum valuation, the summation map is a
valued-group homomorphism into the ambient series group, and decomposition
runs the correction engine with a section that produces a witness for each
residual.  A witness exists exactly when some subgroup has an element of
value ``v(a)``, so each subgroup answers one question, ``part(a)``: its
element whose leading term is ``a``'s, or ``None``.  The section takes the
first part, whatever the subgroups' kinds, and a NotPseudoDirect verdict is
a proof.  For a support pattern (all series whose exponents satisfy a
predicate) the part is the leading term itself; for a span (the
coefficient-span of fixed exact series, reduced once to an echelon basis
keyed by the values it takes) it is the basis row at ``v(a)`` times the
leading coefficient.  Both kinds have decidable membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .errors import IndeterminateValuation, NotPseudoDirect, ParseError
from .fields import CoefficientField, FieldElement, _split_top_level, parse_number
from .parsing import parse_series
from .series import Series, SeriesSpace, _trusted
from .solver import (
    DEFAULT_MAX_ITER,
    AsymptoticSection,
    HomomorphismSpec,
    SolveResult,
    solve,
)
from .ultrametric import ValuedGroup
from .valuegroups import INFINITY, GroupElement, LexPair, OrderedValue, ValueGroup


@dataclass(frozen=True)
class SupportSubgroup:
    """All series whose support exponents satisfy ``pattern``."""

    name: str
    pattern: Callable[[GroupElement], bool]

    def contains_series(self, s: Series) -> bool:
        return all(self.pattern(g) for g in s.support)

    def part(self, a: Series) -> Series | None:
        """``a``'s leading term, as is, when the pattern takes its exponent.
        The term is read from ``a.terms``; ``leading_term`` runs only to
        refuse an empty ``a`` with ``EmptySupport``."""
        lead = a.terms[0] if a.terms else a.leading_term()
        if not self.pattern(lead.exponent):
            return None
        # a leading coefficient is nonzero, so the term is a series as is
        return _trusted(a.field, a.group, (lead,), INFINITY)


@dataclass(frozen=True)
class SpanSubgroup:
    """Coefficient-span of finitely many fixed exact series."""

    name: str
    generators: tuple[Series, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("span subgroup needs at least one generator")
        if any(not u.is_exact for u in self.generators):
            raise ParseError("span generators must be exact series")

    def contains_series(self, s: Series) -> bool:
        field = s.field
        exponents = sorted(
            {g for u in self.generators for g in u.support} | set(s.support)
        )
        matrix = [[u.coefficient(e) for u in self.generators] for e in exponents]
        rhs = [s.coefficient(e) for e in exponents]
        return _solve_linear(field, matrix, rhs) is not None

    @cached_property
    def basis(self) -> dict[GroupElement, Series]:
        """The span's element of each value it takes, leading coefficient 1.

        Generators are reduced in order against the rows kept so far, each
        by its leading term only, and what is left is kept under its leading
        exponent.  So the keys are exactly the values of the span's nonzero
        elements.  Built on first use.
        """
        field = self.generators[0].field
        rows: dict[GroupElement, Series] = {}
        for r in self.generators:
            while r.terms:
                c, g = r.leading_term()
                if g not in rows:
                    rows[g] = r.scale(field.inv(c))
                    break
                r = r.sub(rows[g].scale(c))
        return rows

    def part(self, a: Series) -> Series | None:
        """The basis row at ``v(a)`` times ``a``'s leading coefficient, if
        any; an inexact ``a`` is refused with ``ParseError``."""
        if not a.is_exact:
            raise ParseError("a span splits only an exact target")
        c, g = a.leading_term()
        row = self.basis.get(g)
        return None if row is None else row.scale(c)


Subgroup = SupportSubgroup | SpanSubgroup


@dataclass(frozen=True, slots=True)
class ProductElement:
    """A tuple of series, one per factor of a ``ProductGroup``.  Slotted, with
    no ``__dict__``; the section builds its witness through ``_set_components``,
    the slot's ``__set__``."""

    components: tuple[Series, ...]

    def __iter__(self):
        return iter(self.components)

    def __str__(self) -> str:
        return "(" + "; ".join(map(str, self.components)) + ")"


_set_components = ProductElement.components.__set__


def min_valuation(t: ProductElement) -> OrderedValue:
    """Least component valuation; the top value exactly when all are zero.

    The least component bound is the minimum when a component of determined
    valuation reaches it (a tie with a zero only to precision included);
    otherwise only the bound is known and ``IndeterminateValuation`` carries it.
    """
    bounds = [s.valuation_lower_bound() for s in t.components]
    least = min(bounds, default=INFINITY)
    if least.is_infinite or any(s.terms and b == least for s, b in zip(t.components, bounds)):
        return least
    raise IndeterminateValuation(
        "minimum valuation undetermined: a component is zero only to precision",
        bound=least,
    )


def sum_map(t: ProductElement) -> Series:
    """The sum of the components.  Only the components that are not exact
    zeros are folded, so a lone part is returned as is; a zero only to its
    precision, such as ``O(5)``, is added, as it cuts the truncation.  When
    every component is an exact zero the first is the sum."""
    if not t.components:
        raise ValueError("sum of an empty tuple has no ambient group")
    total = None
    for s in t.components:
        if s.terms or s.truncation.finite is not None:
            total = s if total is None else total.add(s)
    return t.components[0] if total is None else total


@dataclass(frozen=True)
class ProductGroup(ValuedGroup):
    """Finite product of valued groups under the minimum valuation."""

    spaces: tuple[ValuedGroup, ...]

    @property
    def group(self) -> ValueGroup:
        return self.spaces[0].group

    @property
    def zero(self) -> ProductElement:
        return ProductElement(tuple(sp.zero for sp in self.spaces))

    def add(self, a: ProductElement, b: ProductElement) -> ProductElement:
        return ProductElement(
            tuple(sp.add(x, y) for sp, x, y in zip(self.spaces, a.components, b.components))
        )

    def neg(self, a: ProductElement) -> ProductElement:
        return ProductElement(tuple(sp.neg(x) for sp, x in zip(self.spaces, a.components)))

    def total(self, parts: Sequence[ProductElement]) -> ProductElement:
        """Each space's ``total`` of its components; a part of another width is refused."""
        width = len(self.spaces)
        rows = [p.components for p in parts]
        for row in rows:
            if len(row) != width:
                raise ValueError(f"product parts must have {width} components")
        columns = zip(*rows) if rows else [()] * width
        return ProductElement(tuple(sp.total(c) for sp, c in zip(self.spaces, columns)))

    def valuation(self, a: ProductElement) -> OrderedValue:
        return min_valuation(a)

    def valuation_lower_bound(self, a: ProductElement) -> OrderedValue:
        return min(
            (sp.valuation_lower_bound(x) for sp, x in zip(self.spaces, a.components)),
            default=INFINITY,
        )


def check_pseudo_direct_witness(a: Series, t: ProductElement) -> bool:
    """Evaluate both witness conditions exactly for nonzero ``a``; a lower
    bound on ``v(a - sum)`` above ``v(a)`` certifies a truncated target."""
    total = sum_map(t)
    if total.valuation() != min_valuation(t):
        return False
    return a.sub(total).valuation_lower_bound() > a.valuation()


# -- the section -----------------------------------------------------------


def pseudo_direct_section(subgroups: Sequence[Subgroup], a: Series) -> ProductElement:
    """A witness tuple for nonzero ``a``: the first subgroup's part at ``a``
    (the fixed tie-break keeps runs deterministic), or ``NotPseudoDirect``
    when no subgroup has one.  An empty family is a ``ValueError``."""
    for i, sub in enumerate(subgroups):
        part = sub.part(a)
        if part is not None:
            components = [_trusted(a.field, a.group, (), INFINITY)] * len(subgroups)
            components[i] = part
            t = object.__new__(ProductElement)
            _set_components(t, tuple(components))
            return t
    if not subgroups:
        raise ValueError("need at least one subgroup")
    raise NotPseudoDirect(
        f"no subgroup has an element of value {a.group.format(a.leading_term().exponent)}"
    )


# unused; perfbench/tracer.py still wraps it by name (EXTRA_SPANS)
def _span_section(subgroups: Sequence[SpanSubgroup], a: Series) -> ProductElement:
    return pseudo_direct_section(subgroups, a)


# Never called; kept by name and signature only because perfbench/tracer.py
# resolves and wraps it (GRID) to count grid candidates.
def _grid(dims: int, radius: int):
    return iter(())


def _solve_linear(
    field: CoefficientField,
    matrix: list[list[FieldElement]],
    rhs: list[FieldElement],
) -> list[FieldElement] | None:
    """Gauss-Jordan over the coefficient field.

    Returns one solution, with every free unknown set to zero, or ``None``
    when the system is inconsistent.  Empty systems are trivially consistent.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows and any(len(r) != cols for r in matrix):
        raise ValueError("ragged matrix")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not field.is_zero(aug[i][c])), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [field.mul(inv, x) for x in aug[r]]
        for i in range(rows):
            if i != r and not field.is_zero(aug[i][c]):
                factor = aug[i][c]
                aug[i] = [
                    field.sub(aug[i][k], field.mul(factor, aug[r][k]))
                    for k in range(cols + 1)
                ]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if not field.is_zero(aug[i][cols]):
            return None
    solution = [field.zero] * cols
    for pr, pc in pivots:
        solution[pc] = aug[pr][cols]
    return solution


# -- solver instantiation --------------------------------------------------


def decomposition_instance(
    subgroups: Sequence[Subgroup], space: SeriesSpace
) -> tuple[HomomorphismSpec, AsymptoticSection]:
    if not subgroups:
        raise ValueError("need at least one subgroup")
    product = ProductGroup(tuple(space for _ in subgroups))
    spec = HomomorphismSpec(domain=product, codomain=space, apply=sum_map)
    section = AsymptoticSection(
        section=lambda b: pseudo_direct_section(subgroups, b),
        contains=lambda t: all(
            sub.contains_series(s) for sub, s in zip(subgroups, t.components)
        ),
    )
    return spec, section


def decompose_solve(
    subgroups: Sequence[Subgroup],
    a: Series,
    precision: OrderedValue = INFINITY,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Full correction run splitting ``a`` across the subgroups."""
    space = SeriesSpace(a.field, a.group)
    spec, section = decomposition_instance(subgroups, space)
    return solve(spec, section, a, precision=precision, max_iter=max_iter)


def decompose(
    subgroups: Sequence[Subgroup],
    a: Series,
    precision: OrderedValue = INFINITY,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ProductElement:
    """Components summing to ``a`` (exactly, or to ``precision``)."""
    return decompose_solve(subgroups, a, precision, max_iter).solution


# -- pattern selector strings (CLI / config surface) -----------------------


def parse_subgroup(
    field: CoefficientField, group: ValueGroup, text: str
) -> Subgroup:
    """Subgroup from a selector: ``even``, ``odd``, ``mod:<k>:<r>``,
    ``set:{g1,g2,...}`` or ``span:{series; series; ...}``.

    The residue patterns (``even``, ``odd``, ``mod:``) need scalar exponents
    and are refused over a lexicographic pair group."""
    text = text.strip()
    residues = {"even": "mod:2:0", "odd": "mod:2:1"}.get(text, text)
    if residues.startswith("mod:"):
        if isinstance(group, LexPair):
            raise ParseError(f"pattern {text!r} needs int or rat exponents, not {group.name}")
        k_text, _, r_text = residues[len("mod:") :].partition(":")
        k = parse_number(k_text, "mod:<k>:<r> modulus", integer=True)
        r = parse_number(r_text, "mod:<k>:<r> residue", integer=True)
        if k <= 0:
            raise ParseError(f"modulus must be positive in {text!r}")
        return SupportSubgroup(text, lambda g, k=k, r=r % k: g % k == r)
    if text.startswith("set:{") and text.endswith("}"):
        members = {
            group.parse(tok)
            for tok in _split_top_level(text[len("set:{") : -1], ",")
            if tok.strip()
        }
        return SupportSubgroup(text, lambda g, members=members: g in members)
    if text.startswith("span:{") and text.endswith("}"):
        generators = tuple(
            parse_series(field, group, tok)
            for tok in text[len("span:{") : -1].split(";")
            if tok.strip()
        )
        if not generators:
            raise ParseError(f"empty span pattern {text!r}")
        return SpanSubgroup(text, generators)
    raise ParseError(
        f"unknown pattern {text!r} (want even, odd, mod:<k>:<r>, set:{{...}} or span:{{...}})"
    )
