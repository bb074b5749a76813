"""Named check instances: honest built-ins and deliberately broken oracles.

Each instance bundles a homomorphism, its correction section, optionally
derivation data, and seeded samplers tuned so that every hypothesis check
receives samples satisfying its preconditions.  The broken instances exist to
prove the checks have teeth: each one targets one hypothesis, with
deterministic canary samples that trip the intended check regardless of seed.
All three start from the Euler fixture.  ``broken-monotone`` and
``broken-progress`` replace one part of it (the map, the section), so they pass
every other check; ``broken-order`` takes only its subset (no constant term),
and also fails ``value_monotonicity`` at seeds that draw a sample whose ``t^2``
and ``t^3`` coefficients cancel (see ``_broken_order``).

    euler            honest t*d/dt integration instance
    ddt              honest d/dt instance (targets avoid the obstructed exponent)
    broken-order     exponent relabelling that collapses two values
    broken-monotone  shifts constants far down, breaking value comparison transfer
    broken-progress  honest map with a half-strength section that never finishes
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .differential import (
    DifferentialFieldSpec,
    _outside_subset,
    check_derivative_monotonicity,
    check_differential_valuation,
    ddt,
    euler,
    integration_instance,
)
from .errors import ParseError
from .fields import QQ, CoefficientField
from .reporting import CheckReport
from .sampling import Forbid, random_series
from .series import Series, SeriesSpace, make_series
from .solver import (
    AsymptoticSection,
    HomomorphismSpec,
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
    """A named instance plus the samplers its hypothesis checks need.

    ``dspec`` is set on the honest derivation instances, which also get the
    value-map, injectivity and derivation checks.
    """

    name: str
    description: str
    spec: HomomorphismSpec
    section: AsymptoticSection
    sample_sections: Sampler
    sample_pairs: PairSampler
    sample_targets: Sampler
    dspec: DifferentialFieldSpec | None = None


def _samplers(
    space: SeriesSpace,
    section_forbid: Forbid,
    target_forbid: Forbid,
    pair_forbid: Forbid = None,
    canaries: tuple[Series, ...] = (),
    canary_pairs: tuple[tuple[Series, Series], ...] = (),
) -> tuple[Sampler, PairSampler, Sampler]:
    """Series of up to six terms on [-10, 10]; canaries first, then random draws.

    A pair is ``(a, s)`` with ``a`` possibly zero and ``s`` a nonzero section
    sample.
    """

    def draw(rng, forbid, nonzero=True):
        return random_series(rng, space, -10, 10, 6, nonzero=nonzero, forbid=forbid)

    def sections(rng, n):
        rest = [draw(rng, section_forbid) for _ in range(max(0, n - len(canaries)))]
        return (list(canaries) + rest)[:n]

    def pairs(rng, n):
        rest = [
            (draw(rng, pair_forbid, nonzero=False), draw(rng, section_forbid))
            for _ in range(max(0, n - len(canary_pairs)))
        ]
        return (list(canary_pairs) + rest)[:n]

    def targets(rng, n):
        return [draw(rng, target_forbid) for _ in range(n)]

    return sections, pairs, targets


def _derivation_samplers(dspec: DifferentialFieldSpec):
    unsolvable = lambda g: dspec.derivation.shift_inverse(g) is None
    return _samplers(dspec.space, _outside_subset(dspec), unsolvable)


def _small_pairs(rng: random.Random, dspec: DifferentialFieldSpec, n: int) -> list[tuple]:
    # numerator samples have value >= 0, denominators strictly positive
    # with surviving derivatives, as the check's hypothesis demands
    space, outside = dspec.space, _outside_subset(dspec)
    return [
        (
            random_series(rng, space, 0, 10, 5),
            random_series(rng, space, 1, 10, 5, nonzero=True, forbid=outside),
        )
        for _ in range(n)
    ]


def _nonzero_value_pairs(rng: random.Random, dspec: DifferentialFieldSpec, n: int):
    space, outside = dspec.space, _outside_subset(dspec)
    draw = lambda: random_series(rng, space, -10, 10, 5, nonzero=True, forbid=outside)
    return [(draw(), draw()) for _ in range(n)]


def _honest(name: str, derivation, description: str):
    def build(field: CoefficientField, group: ValueGroup) -> CheckInstance:
        dspec = DifferentialFieldSpec(field, group, derivation(field, group))
        spec, section, _value_map = integration_instance(dspec)
        samplers = _derivation_samplers(dspec)
        return CheckInstance(name, description, spec, section, *samplers, dspec=dspec)

    return build


_euler = _honest("euler", euler, "t*d/dt on exact series")


def _termwise_hom(space: SeriesSpace, scale, shift) -> HomomorphismSpec:
    def apply(s: Series) -> Series:
        terms = [(space.field.mul(c, scale(g)), shift(g)) for c, g in s.terms]
        return make_series(space.field, space.group, terms, s.truncation)

    return HomomorphismSpec(domain=space, codomain=space, apply=apply)


def _broken_order(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """Relabels exponent 2 to 3: two distinct values share an image value.

    Its subset is the Euler fixture's.  The section inverts the relabelling
    by picking the smallest preimage, so progress still holds on targets
    avoiding exponents 0 and 2.  No exponent moves down, but a series
    ``c t^2 - c t^3 + ...`` loses both terms under the map, so its image value
    jumps up.  When such a series is the ``s`` of a sampled pair, value
    comparisons fail to transfer and ``value_monotonicity`` flags it too (seed
    2016045923 with 60 samples draws one whose image is zero).
    """
    space = SeriesSpace(field, group)
    relabel = lambda g: 3 if g in (2, 3) else g

    def section(b: Series) -> Series:
        c, g = b.leading_term()
        return space.monomial(c, 2 if g == 3 else g)

    canaries = (space.monomial(1, 2), space.monomial(1, 3))
    return CheckInstance(
        "broken-order",
        "induced value map collapses values 2 and 3",
        _termwise_hom(space, lambda g: field.one, relabel),
        AsymptoticSection(section=section, contains=_euler(field, group).section.contains),
        *_samplers(space, {0}, {0, 2}, canaries=canaries),
    )


def _broken_monotone(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """The Euler fixture with its map replaced: constants drop to exponent -10.

    It keeps the Euler section, so on constant-free series nothing is wrong
    and the value-map and progress checks pass; the canary pair (5, t^-1)
    violates comparison transfer: v(a) >= v(s) but the images compare the
    other way.
    """
    honest = _euler(field, group)
    space = honest.dspec.space
    scale = lambda g: field.one if g == 0 else field.coerce(g)
    shift = lambda g: -10 if g == 0 else g
    canary = (space.monomial(5, 0), space.monomial(1, -1))
    return CheckInstance(
        "broken-monotone",
        "constants map far down, breaking value comparison transfer",
        _termwise_hom(space, scale, shift),
        honest.section,
        *_samplers(space, {0}, {0}, pair_forbid={0}, canary_pairs=(canary,)),
    )


def _broken_progress(field: CoefficientField, group: ValueGroup) -> CheckInstance:
    """The Euler fixture with its section replaced by one that corrects only
    half the leading term.

    The residual keeps its value after each step, so the progress check flags
    every target while the order and comparison checks still pass.
    """
    honest = _euler(field, group)
    space, two = honest.dspec.space, field.coerce(2)

    def section(b: Series) -> Series:
        c, g = b.leading_term()
        return space.monomial(field.div(c, field.mul(two, field.coerce(g))), g)

    return replace(
        honest,
        name="broken-progress",
        description="section corrects only half of each leading term",
        section=AsymptoticSection(section=section, contains=honest.section.contains),
        dspec=None,
    )


_INSTANCES = {
    "euler": _euler,
    "ddt": _honest("ddt", ddt, "d/dt on exact series"),
    "broken-order": _broken_order,
    "broken-monotone": _broken_monotone,
    "broken-progress": _broken_progress,
}


def build_instance(
    name: str, field: CoefficientField = QQ, group: ValueGroup = INTEGERS
) -> CheckInstance:
    """The named fixture; the ``broken-*`` ones exist over QQ with ``int``
    exponents only.  An unknown name, or a ``broken-*`` one over any other
    field or group, is refused with ``ParseError``."""
    if name not in _INSTANCES:
        raise ParseError(f"unknown check instance {name!r} (choose from {instance_names()})")
    if name.startswith("broken-") and (field, group) != (QQ, INTEGERS):
        raise ParseError(
            f"instance {name!r} is defined over {QQ.name} with {INTEGERS.name} "
            f"exponents only, not {field.name} with {group.name}"
        )
    return _INSTANCES[name](field, group)


def instance_names() -> list[str]:
    return list(_INSTANCES)


def run_instance_checks(
    instance: CheckInstance, seed: int, samples: int
) -> list[CheckReport]:
    """All hypothesis checks that apply to the instance, in a fixed order.
    Fewer than two samples are refused: ``value_map_order`` needs a pair."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = random.Random(seed)
    reports = [
        check_value_map_order(instance.spec, instance.sample_sections(rng, samples)),
        check_value_monotonicity(instance.spec, instance.sample_pairs(rng, samples)),
        check_section_progress(
            instance.spec, instance.section, instance.sample_targets(rng, samples)
        ),
    ]
    dspec = instance.dspec
    if dspec is not None:
        _spec, _section, value_map = integration_instance(dspec)
        reports.append(
            verify_value_map(value_map, instance.spec, instance.sample_sections(rng, samples))
        )
        elements = instance.sample_sections(rng, samples)
        injec_pairs = list(zip(elements[::2], elements[1::2]))
        reports.append(verify_section_injectivity(instance.spec, injec_pairs))
        reports.append(check_differential_valuation(dspec, _small_pairs(rng, dspec, samples)))
        reports.append(
            check_derivative_monotonicity(dspec, _nonzero_value_pairs(rng, dspec, samples))
        )
    return reports
