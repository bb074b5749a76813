"""Named check instances: honest built-ins and deliberately broken oracles.

Each instance bundles a homomorphism, its correction section, optionally a
claimed value map and derivation data, and seeded samplers tuned so that every
hypothesis check receives samples satisfying its preconditions.  The broken
instances exist to prove the checks have teeth: each one targets one
hypothesis, with deterministic canary samples that trip the intended check
regardless of seed.  ``broken-monotone`` and ``broken-progress`` pass every
other check; ``broken-order`` also fails ``value_monotonicity`` at seeds that
draw a sample whose ``t^2`` and ``t^3`` coefficients cancel (see
``_broken_order``).

    euler            honest t*d/dt integration instance
    ddt              honest d/dt instance (targets avoid the obstructed exponent)
    broken-order     exponent relabelling that collapses two values
    broken-monotone  shifts constants far down, breaking value comparison transfer
    broken-progress  honest map with a half-strength section that never finishes
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .differential import (
    DifferentialFieldSpec,
    check_derivative_monotonicity,
    check_differential_valuation,
    ddt,
    euler,
    has_no_constant_term,
    integration_instance,
)
from .errors import ParseError
from .fields import QQ, CoefficientField
from .reporting import CheckReport
from .sampling import random_series
from .series import Series, SeriesSpace, make_series
from .solver import (
    AsymptoticSection,
    HomomorphismSpec,
    ValueMap,
    check_section_progress,
    check_value_map_order,
    check_value_monotonicity,
    verify_section_injectivity,
    verify_value_map,
)
from .valuegroups import INTEGERS, ValueGroup

Sampler = Callable[[random.Random, int], list]
PairSampler = Callable[[random.Random, int], list[tuple]]


@dataclass(frozen=True)
class CheckInstance:
    """A named instance plus the samplers its hypothesis checks need."""

    name: str
    description: str
    spec: HomomorphismSpec
    section: AsymptoticSection
    sample_sections: Sampler
    sample_pairs: PairSampler
    sample_targets: Sampler
    value_map: ValueMap | None = None
    dspec: DifferentialFieldSpec | None = None
    sample_small: PairSampler | None = None
    sample_nonzero_values: PairSampler | None = None


def _differential_samplers(dspec: DifferentialFieldSpec):
    space = dspec.space
    derivation = dspec.derivation
    zero = dspec.group.zero

    def not_in_subset(g):
        return g == zero or dspec.field.is_zero(derivation.scale(g))

    def unsolvable(g):
        return derivation.shift_inverse(g) is None

    def sections(rng, n):
        return [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid=not_in_subset)
            for _ in range(n)
        ]

    def pairs(rng, n):
        return [
            (
                random_series(rng, space, -10, 10, 6),
                random_series(rng, space, -10, 10, 6, nonzero=True, forbid=not_in_subset),
            )
            for _ in range(n)
        ]

    def targets(rng, n):
        return [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid=unsolvable)
            for _ in range(n)
        ]

    def small(rng, n):
        # numerator samples have value >= 0, denominators strictly positive
        # with surviving derivatives, as the check's hypothesis demands
        return [
            (
                random_series(rng, space, 0, 10, 5),
                random_series(rng, space, 1, 10, 5, nonzero=True, forbid=not_in_subset),
            )
            for _ in range(n)
        ]

    def nonzero_values(rng, n):
        return [
            (
                random_series(rng, space, -10, 10, 5, nonzero=True, forbid=not_in_subset),
                random_series(rng, space, -10, 10, 5, nonzero=True, forbid=not_in_subset),
            )
            for _ in range(n)
        ]

    return sections, pairs, targets, small, nonzero_values


def _differential_instance(
    name: str, dspec: DifferentialFieldSpec, description: str
) -> CheckInstance:
    spec, section, value_map = integration_instance(dspec)
    sections, pairs, targets, small, nonzero_values = _differential_samplers(dspec)
    return CheckInstance(
        name=name,
        description=description,
        spec=spec,
        section=section,
        sample_sections=sections,
        sample_pairs=pairs,
        sample_targets=targets,
        value_map=value_map,
        dspec=dspec,
        sample_small=small,
        sample_nonzero_values=nonzero_values,
    )


def _termwise_hom(space: SeriesSpace, scale, shift) -> HomomorphismSpec:
    def apply(s: Series) -> Series:
        terms = [(space.field.mul(c, scale(g)), shift(g)) for c, g in s.terms]
        return make_series(space.field, space.group, terms, s.truncation)

    return HomomorphismSpec(domain=space, codomain=space, apply=apply)


def _broken_order(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """Relabels exponent 2 to 3: two distinct values share an image value.

    The section inverts the relabelling by picking the smallest preimage, so
    progress still holds on targets avoiding exponents 0 and 2.  No exponent
    moves down, but a series ``c t^2 - c t^3 + ...`` loses both terms under
    the map, so its image value jumps up.  When such a series is the ``s`` of
    a sampled pair, value comparisons fail to transfer and
    ``value_monotonicity`` flags it too (seed 2016045923 with 60 samples draws
    one whose image is zero).
    """
    space = SeriesSpace(field, group)
    relabel = lambda g: 3 if g in (2, 3) else g
    spec = _termwise_hom(space, lambda g: field.one, relabel)

    def section(b: Series) -> Series:
        c, g = b.leading_term()
        return space.monomial(c, 2 if g == 3 else g)

    def sections(rng, n):
        canaries = [space.monomial(1, 2), space.monomial(1, 3)]
        rest = [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0})
            for _ in range(max(0, n - len(canaries)))
        ]
        return canaries[:n] + rest

    def pairs(rng, n):
        return [
            (
                random_series(rng, space, -10, 10, 6),
                random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0}),
            )
            for _ in range(n)
        ]

    def targets(rng, n):
        return [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0, 2})
            for _ in range(n)
        ]

    return CheckInstance(
        name="broken-order",
        description="induced value map collapses values 2 and 3",
        spec=spec,
        section=AsymptoticSection(section=section, contains=has_no_constant_term),
        sample_sections=sections,
        sample_pairs=pairs,
        sample_targets=targets,
    )


def _broken_monotone(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """Behaves like the Euler operator except constants drop to exponent -10.

    On constant-free series nothing is wrong, so the value-map and progress
    checks pass; the canary pair (5, t^-1) violates comparison transfer:
    v(a) >= v(s) but the images compare the other way.
    """
    space = SeriesSpace(field, group)
    scale = lambda g: field.one if g == 0 else field.coerce(g)
    shift = lambda g: -10 if g == 0 else g
    spec = _termwise_hom(space, scale, shift)

    def section(b: Series) -> Series:
        c, g = b.leading_term()
        return space.monomial(field.div(c, field.coerce(g)), g)

    def sections(rng, n):
        return [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0})
            for _ in range(n)
        ]

    def pairs(rng, n):
        canary = (space.monomial(5, 0), space.monomial(1, -1))
        rest = [
            (
                random_series(rng, space, -10, 10, 6, forbid={0}),
                random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0}),
            )
            for _ in range(max(0, n - 1))
        ]
        return ([canary] + rest)[:n]

    def targets(rng, n):
        return [
            random_series(rng, space, -10, 10, 6, nonzero=True, forbid={0})
            for _ in range(n)
        ]

    return CheckInstance(
        name="broken-monotone",
        description="constants map far down, breaking value comparison transfer",
        spec=spec,
        section=AsymptoticSection(section=section, contains=has_no_constant_term),
        sample_sections=sections,
        sample_pairs=pairs,
        sample_targets=targets,
    )


def _broken_progress(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """Honest Euler map with a section that only corrects half the leading term.

    The residual keeps its value after each step, so the progress check flags
    every target while the order and comparison checks still pass.
    """
    dspec = DifferentialFieldSpec(field, group, euler(field, group))
    spec, _honest, _vm = integration_instance(dspec)
    space = dspec.space
    two = field.coerce(2)

    def section(b: Series) -> Series:
        c, g = b.leading_term()
        return space.monomial(field.div(c, field.mul(two, field.coerce(g))), g)

    sections, pairs, targets, _small, _nzv = _differential_samplers(dspec)
    return CheckInstance(
        name="broken-progress",
        description="section corrects only half of each leading term",
        spec=spec,
        section=AsymptoticSection(section=section, contains=has_no_constant_term),
        sample_sections=sections,
        sample_pairs=pairs,
        sample_targets=targets,
    )


_BROKEN = {
    "broken-order": _broken_order,
    "broken-monotone": _broken_monotone,
    "broken-progress": _broken_progress,
}


def build_instance(
    name: str, field: CoefficientField = QQ, group: ValueGroup = INTEGERS
) -> CheckInstance:
    """The named fixture; the ``broken-*`` ones exist over QQ with ``int``
    exponents only and refuse any other field or group with ``ParseError``."""
    if name == "euler":
        dspec = DifferentialFieldSpec(field, group, euler(field, group))
        return _differential_instance("euler", dspec, "t*d/dt on exact series")
    if name == "ddt":
        dspec = DifferentialFieldSpec(field, group, ddt(field, group))
        return _differential_instance("ddt", dspec, "d/dt on exact series")
    if name in _BROKEN:
        if (field, group) != (QQ, INTEGERS):
            raise ParseError(
                f"instance {name!r} is defined over {QQ.name} with {INTEGERS.name} "
                f"exponents only, not {field.name} with {group.name}"
            )
        return _BROKEN[name](field, group)
    raise ValueError(f"unknown check instance {name!r} (choose from {instance_names()})")


def instance_names() -> list[str]:
    return ["euler", "ddt", "broken-order", "broken-monotone", "broken-progress"]


def run_instance_checks(
    instance: CheckInstance, seed: int, samples: int
) -> list[CheckReport]:
    """All hypothesis checks that apply to the instance, in a fixed order."""
    rng = random.Random(seed)
    reports = [
        check_value_map_order(instance.spec, instance.sample_sections(rng, samples)),
        check_value_monotonicity(instance.spec, instance.sample_pairs(rng, samples)),
        check_section_progress(
            instance.spec, instance.section, instance.sample_targets(rng, samples)
        ),
    ]
    if instance.value_map is not None:
        reports.append(
            verify_value_map(
                instance.value_map, instance.spec, instance.sample_sections(rng, samples)
            )
        )
        elements = instance.sample_sections(rng, samples)
        injec_pairs = list(zip(elements[::2], elements[1::2]))
        reports.append(verify_section_injectivity(instance.spec, injec_pairs))
    if instance.dspec is not None:
        if instance.sample_small is not None:
            reports.append(
                check_differential_valuation(
                    instance.dspec, instance.sample_small(rng, samples)
                )
            )
        if instance.sample_nonzero_values is not None:
            reports.append(
                check_derivative_monotonicity(
                    instance.dspec, instance.sample_nonzero_values(rng, samples)
                )
            )
    return reports
