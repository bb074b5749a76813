"""Term-wise derivations on generalized power series and formal integration.

A term-wise derivation is a pair (d, sigma): the monomial ``c t^g`` maps to
``(c * d(g)) t^{sigma(g)}``, extended additively.  Two built-ins cover the
classical cases on integer or rational exponents:

    ddt    d(g) = g, sigma(g) = g - 1   (ordinary d/dt)
    euler  d(g) = g, sigma(g) = g       (t * d/dt)

Such a derivation is an additive homomorphism of the series group, so the
correction engine applies: integration solves ``D(a) = b`` with the section
oracle that inverts ``D`` on the leading monomial.  The oracle is total
exactly when the leading exponent has an admissible preimage under sigma; for
``ddt`` the exponent -1 has none (the classical logarithm obstruction), and
the failure is reported, not silently absorbed.

The distinguished solution subset is the series whose support avoids zero
and each exponent where ``d`` vanishes (for the built-ins over GF(p), each
multiple of p), which carry the kernel; so solutions there are unique.
Differential-valuation compatibility conditions are checked on samples by
pure value arithmetic; no series division is ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .errors import AmbiguousShift, Obstruction, ParseError, UnmappedValue
from .fields import CoefficientField, FieldElement, _split_top_level
from .reporting import CheckReport
from .series import Series, SeriesSpace, _term, _trusted, make_series
from .solver import (
    DEFAULT_MAX_ITER,
    AsymptoticSection,
    HomomorphismSpec,
    SolveResult,
    ValueMap,
    solve,
)
from .valuegroups import (
    INFINITY,
    INTEGERS,
    RATIONALS,
    GroupElement,
    OrderedValue,
    ValueGroup,
)


@dataclass(frozen=True)
class TermwiseDerivation:
    """Additive map acting per term: ``c t^g -> (c * d(g)) t^{sigma(g)}``.

    ``shift_inverse(g)`` returns the unique exponent ``g'`` with
    ``sigma(g') = g`` and ``d(g') != 0``, or ``None`` when no admissible
    preimage exists; uniqueness is the constructor's burden (table-built
    derivations reject ambiguous shifts outright).  ``map_truncation``
    carries a precision bound through the derivation conservatively.
    ``field`` and ``group`` are the coefficients and exponents it was built for.
    ``increasing`` is no field: only ``ddt``, ``euler`` and ``from_tables``
    set it, where they proved the shift strictly increasing on live exponents
    (``d(g) != 0``), and only then does ``derive`` skip the normaliser.
    """

    field: CoefficientField
    group: ValueGroup
    scale: Callable[[GroupElement], FieldElement]
    shift: Callable[[GroupElement], GroupElement]
    shift_inverse: Callable[[GroupElement], GroupElement | None]
    map_truncation: Callable[[OrderedValue], OrderedValue]

    increasing = False


@dataclass(frozen=True)
class _OrderKeeping(TermwiseDerivation):
    """A derivation whose builder proved its shift increasing on live exponents."""

    increasing = True


def _unit_for(group: ValueGroup) -> GroupElement:
    if group == INTEGERS:
        return 1
    if group == RATIONALS:
        return Fraction(1)
    raise ParseError(f"derivation needs integer or rational exponents, got {group!r}")


def _power_rule(field: CoefficientField, group: ValueGroup, step: int) -> TermwiseDerivation:
    """``c t^g -> (c g) t^{g - step}``; step 0 takes identity maps, no arithmetic.
    A preimage whose scale has no image in the field (over GF(p), one whose
    denominator p divides) is not admissible, as one whose scale is zero."""
    one = _unit_for(group)
    if step:
        add, minus_one = group.add, group.neg(one)
        shift, unshift = partial(add, minus_one), partial(add, one)
        map_truncation = lambda t: OrderedValue(add(t.finite, minus_one))
    else:
        shift = unshift = map_truncation = lambda x: x

    def shift_inverse(g):
        g2 = unshift(g)
        try:
            return g2 if not field.is_zero(field.coerce(g2)) else None
        except ParseError:
            return None

    return _OrderKeeping(field, group, field.coerce, shift, shift_inverse, map_truncation)


def ddt(field: CoefficientField, group: ValueGroup) -> TermwiseDerivation:
    """Ordinary differentiation: ``c t^g -> (c g) t^{g-1}``."""
    return _power_rule(field, group, 1)


def euler(field: CoefficientField, group: ValueGroup) -> TermwiseDerivation:
    """Euler operator ``t * d/dt``: ``c t^g -> (c g) t^g``."""
    return _power_rule(field, group, 0)


def from_tables(
    field: CoefficientField,
    group: ValueGroup,
    scale_table: dict[GroupElement, FieldElement],
    shift_table: dict[GroupElement, GroupElement] | None = None,
) -> TermwiseDerivation:
    """Derivation from finite tables; ``d`` is zero off-table, ``sigma`` the
    identity off-table.

    Rejected at construction when the shift is not injective on the exponents
    that survive (``d != 0``): an ambiguous shift would leave the leading-term
    inverse ill defined.
    """
    shift_table = dict(shift_table or {})
    scale_table = dict(scale_table)
    live = sorted(g for g, c in scale_table.items() if not field.is_zero(c))
    images = [shift_table.get(g, g) for g in live]
    inverse = dict(zip(images, live))
    if len(inverse) < len(live):
        raise AmbiguousShift(next(h for h in images if images.count(h) > 1))

    def map_truncation(t: OrderedValue) -> OrderedValue:
        # Unknown terms sit at exponents >= t; only table entries there can
        # contribute, so the least of their images bounds the unknown output.
        above = [OrderedValue(h) for g, h in zip(live, images) if not OrderedValue(g) < t]
        return min(above) if above else INFINITY

    increasing = all(a < b for a, b in zip(images, images[1:]))
    return (_OrderKeeping if increasing else TermwiseDerivation)(
        field=field,
        group=group,
        scale=lambda g: scale_table.get(g, field.zero),
        shift=lambda g: shift_table.get(g, g),
        shift_inverse=inverse.get,
        map_truncation=map_truncation,
    )


@dataclass(frozen=True)
class DifferentialFieldSpec:
    """A coefficient field, exponent group and derivation bundled together.

    Requires a derivation built over the same field and group, and
    ``d(0) = 0`` so that plain constants are constants of the derivation;
    whether they exhaust the constants is checked on samples elsewhere, never
    assumed.
    """

    field: CoefficientField
    group: ValueGroup
    derivation: TermwiseDerivation

    def __post_init__(self):
        d = self.derivation
        if (d.field, d.group) != (self.field, self.group):
            raise ParseError(
                f"derivation built over {d.field.name} with {d.group.name} exponents, "
                f"not {self.field.name} with {self.group.name} exponents"
            )
        if not self.field.is_zero(d.scale(self.group.zero)):
            raise ParseError("derivation must annihilate constants: d(0) != 0")

    @property
    def space(self) -> SeriesSpace:
        return SeriesSpace(self.field, self.group)


def derive(derivation: TermwiseDerivation, s: Series) -> Series:
    """Apply the derivation to every term; precision carried conservatively.
    The derivation's builder chooses the path: a shift it proved increasing
    (``ddt``, ``euler``, an ascending table) keeps the term order, so the kept
    terms are built in one loop that drops zero products and nothing is cut.
    Any other derivation, a hand-built one included, goes through
    ``make_series``."""
    field, scale, shift = s.field, derivation.scale, derivation.shift
    truncation = s.truncation
    if truncation.finite is not None:
        truncation = derivation.map_truncation(truncation)
    if not derivation.increasing:
        products = [(field.mul(c, scale(g)), shift(g)) for c, g in s.terms]
        return make_series(field, s.group, products, truncation)
    mul, is_zero = field.mul, field.is_zero
    kept = []
    for c, g in s.terms:
        p = mul(c, scale(g))
        if not is_zero(p):
            kept.append(_term((p, shift(g))))
    return _trusted(field, s.group, tuple(kept), truncation)


def _outside_subset(dspec: DifferentialFieldSpec) -> Callable[[GroupElement], bool]:
    """Exponents a solution never carries: those where ``d`` vanishes.  Zero
    is one of them, since ``DifferentialFieldSpec`` refuses ``d(0) != 0``."""
    return lambda g: dspec.field.is_zero(dspec.derivation.scale(g))


def asymptotic_section(dspec: DifferentialFieldSpec, b: Series) -> Series:
    """The exact monomial whose derivative matches the leading term of ``b``.

    Subtracting its derivative strictly raises the residual's value.  Raises
    ``Obstruction`` naming the leading exponent when no admissible preimage
    exists under the shift.  The preimage is live, so ``c / d(g2)`` is nonzero.
    """
    c, g = b.leading_term()
    derivation, field = dspec.derivation, dspec.field
    g2 = derivation.shift_inverse(g)
    if g2 is None:
        raise Obstruction(g)
    coeff = field.div(c, derivation.scale(g2))
    return _trusted(field, dspec.group, (_term((coeff, g2)),), INFINITY)


def integration_instance(
    dspec: DifferentialFieldSpec,
) -> tuple[HomomorphismSpec, AsymptoticSection, ValueMap]:
    """Solver instance for ``D(a) = b`` on the solution subset."""
    space = dspec.space
    derivation = dspec.derivation
    spec = HomomorphismSpec(
        domain=space, codomain=space, apply=lambda s: derive(derivation, s)
    )
    outside = _outside_subset(dspec)
    section = AsymptoticSection(
        section=lambda b: asymptotic_section(dspec, b),
        contains=lambda s: not any(map(outside, s.support)),
    )
    admissible = lambda v: not v.is_infinite and not outside(v.finite)

    def forward(v: OrderedValue) -> OrderedValue:
        return v if v.is_infinite else OrderedValue(derivation.shift(v.finite))

    def inverse(w: OrderedValue) -> OrderedValue:
        if w.is_infinite:
            raise UnmappedValue("the top value has no finite preimage")
        g2 = derivation.shift_inverse(w.finite)
        if g2 is None:
            raise UnmappedValue(f"no achieved value maps onto {w.finite!r}")
        return OrderedValue(g2)

    value_map = ValueMap(forward=forward, inverse=inverse, domain_contains=admissible)
    return spec, section, value_map


def integrate(
    dspec: DifferentialFieldSpec,
    b: Series,
    precision: OrderedValue = INFINITY,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Solve ``D(a) = b`` for ``a`` in the solution subset, to ``precision``."""
    spec, section, _ = integration_instance(dspec)
    return solve(spec, section, b, precision=precision, max_iter=max_iter)


def termwise_integral_oracle(dspec: DifferentialFieldSpec, b: Series) -> Series:
    """Independent ground truth: antidifferentiate every term at once.

    Only defined for exact input with every exponent unobstructed; raises
    ``Obstruction`` on the first exponent without an admissible preimage.
    """
    if not b.is_exact:
        raise ValueError("term-wise oracle needs an exact series")
    derivation = dspec.derivation
    terms = []
    for c, g in b.terms:
        g2 = derivation.shift_inverse(g)
        if g2 is None:
            raise Obstruction(g)
        terms.append((dspec.field.div(c, derivation.scale(g2)), g2))
    return make_series(dspec.field, dspec.group, terms, INFINITY)


# -- differential-valuation compatibility checks ---------------------------


def check_differential_valuation(
    dspec: DifferentialFieldSpec, pairs: Sequence[tuple[Series, Series]]
) -> CheckReport:
    """For samples a (value >= 0) and b (value > 0): v(b) + v(Da) - v(Db) > 0.

    This is the no-division reading of "the derivative of a small element
    stays small relative to b"; pairs with ``Da = 0`` are vacuous (the
    quantity is formally the top value) and counted as skipped.  ``Db = 0``
    makes the condition fail outright and is flagged.
    """
    group = dspec.group
    violations = []
    skipped = 0
    for a, b in pairs:
        da = derive(dspec.derivation, a)
        db = derive(dspec.derivation, b)
        vda = da.valuation()
        if vda.is_infinite:
            skipped += 1
            continue
        vdb = db.valuation()
        if vdb.is_infinite:
            violations.append("derivative of the comparison element vanishes")
            continue
        vb = b.valuation()
        margin = group.sub(group.add(vb.finite, vda.finite), vdb.finite)
        if margin <= group.zero:
            violations.append(
                f"v(b)+v(Da)-v(Db) = {group.format(margin)} is not positive"
            )
    return CheckReport("differential_valuation", len(pairs), tuple(violations), skipped)


def check_derivative_monotonicity(
    dspec: DifferentialFieldSpec, pairs: Sequence[tuple[Series, Series]]
) -> CheckReport:
    """For nonzero samples with nonzero values: v(a) <= v(b) iff v(Da) <= v(Db)."""
    violations = []
    for a, b in pairs:
        va, vb = a.valuation(), b.valuation()
        vda = derive(dspec.derivation, a).valuation()
        vdb = derive(dspec.derivation, b).valuation()
        if (va <= vb) != (vda <= vdb):
            violations.append(
                f"v(a)={va!r}, v(b)={vb!r} but v(Da)={vda!r}, v(Db)={vdb!r}"
            )
    return CheckReport("derivative_monotonicity", len(pairs), tuple(violations))


def check_leibniz(
    dspec: DifferentialFieldSpec, pairs: Sequence[tuple[Series, Series]]
) -> CheckReport:
    """Product rule ``D(ab) = a D(b) + D(a) b`` on exact sample pairs."""
    space = dspec.space
    violations = []
    for a, b in pairs:
        lhs = derive(dspec.derivation, a.mul(b))
        rhs = a.mul(derive(dspec.derivation, b)).add(derive(dspec.derivation, a).mul(b))
        if not space.eq(lhs, rhs):
            violations.append(f"product rule fails for v(a)={a.valuation()!r}")
    return CheckReport("leibniz_rule", len(pairs), tuple(violations))


# -- derivation selector strings (CLI / config surface) --------------------


def parse_derivation(
    field: CoefficientField, group: ValueGroup, selector: str
) -> TermwiseDerivation:
    """Build a derivation from a selector string.

    ``ddt`` and ``euler`` name the built-ins.  Custom derivations use
    ``d:<g>=<c>,...;sigma:<g>=<g'>,...`` with finite tables; the sigma part
    is optional and defaults to the identity.  An exponent repeated within
    a table is refused with ``ParseError``.
    """
    selector = selector.strip()
    if selector == "ddt":
        return ddt(field, group)
    if selector == "euler":
        return euler(field, group)
    if not selector.startswith("d:"):
        raise ParseError(
            f"unknown derivation {selector!r} (want ddt, euler, or d:...;sigma:...)"
        )
    scale_table: dict[GroupElement, FieldElement] = {}
    shift_table: dict[GroupElement, GroupElement] = {}
    sections = {"d:": (scale_table, field.parse), "sigma:": (shift_table, group.parse)}
    for part in selector.split(";"):
        part = part.strip()
        prefix = next((p for p in sections if part.startswith(p)), None)
        if prefix is None:
            raise ParseError(f"bad derivation table section {part!r}")
        table, read = sections[prefix]
        for entry in _split_top_level(part[len(prefix) :], ","):
            g_text, _, value_text = entry.partition("=")
            g = group.parse(g_text)
            if g in table:
                raise ParseError(f"repeated exponent {group.format(g)} in {prefix} table")
            table[g] = read(value_text)
    return from_tables(field, group, scale_table, shift_table)
