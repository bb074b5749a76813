"""Asymptotic-correction engine for valued-group homomorphisms.

Given a homomorphism ``f`` between valued abelian groups and a section oracle
that, for any nonzero target ``b``, produces an element ``s`` of a
distinguished subset with ``w(b - f(s)) > w(b)``, the engine solves
``f(a) = b`` by collecting corrections, and returns their sum, built once as
the domain's ``total`` of the trace.  The residual's value rises strictly
at every step, so at desk scale the loop either hits an exact solution, passes
the requested precision, or reports a meaningful failure: the oracle got stuck
(``SectionFailure``), the oracle lied about progress (``NoProgress``), or the
iteration budget ran out (``IterationLimit``, possible over dense value groups
where strict increase does not force escape).

A step pays for its parts and little else: it calls the section, the map,
the codomain's ``sub`` and its ``valuation`` once each (bound once per
solve), compares two values and records a ``TraceStep`` named tuple.  No
part is trusted: the new residual is always the old one less the map's
image of the correction, and its value is read afresh.

Alongside the loop live sample-based checks for the hypotheses the method
rests on: the induced map on values is well defined and strictly order
preserving, value comparisons transfer through ``f``, and the section really
does improve every target it claims to handle.  Image balls push forward
through the induced value map and finite nests of balls pull back, which is
the constructive content of transferring spherical completeness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, NamedTuple, Sequence

from .errors import (
    IndeterminateValuation,
    IterationLimit,
    NoProgress,
    SectionFailure,
    UnmappedValue,
)
from .reporting import CheckReport
from .ultrametric import Ball, Nest, ValuedGroup, intersect_finite_nest
from .valuegroups import INFINITY, OrderedValue, ValueGroup, ov_format

DEFAULT_MAX_ITER = 10000


@dataclass(frozen=True)
class HomomorphismSpec:
    """A group homomorphism between two valued groups, as callables."""

    domain: ValuedGroup
    codomain: ValuedGroup
    apply: Callable[[Any], Any]


@dataclass(frozen=True)
class AsymptoticSection:
    """Correction oracle: for nonzero ``b`` return ``s`` in the distinguished
    subset with ``w(b - f(s)) > w(b)``; raise ``SectionFailure`` when stuck.

    ``contains`` is the membership test for the distinguished subset.
    """

    section: Callable[[Any], Any]
    contains: Callable[[Any], bool]


@dataclass(frozen=True)
class ValueMap:
    """The induced order isomorphism between achieved value sets.

    ``forward`` sends the value of a section element to the value of its
    image; ``inverse`` undoes it on finite image values.  ``domain_contains``
    decides membership of a finite value in the achieved domain value set.
    Both directions are checked against observations, never trusted.
    """

    forward: Callable[[OrderedValue], OrderedValue]
    inverse: Callable[[OrderedValue], OrderedValue]
    domain_contains: Callable[[OrderedValue], bool]


def identity_value_map() -> ValueMap:
    ident = lambda v: v
    return ValueMap(forward=ident, inverse=ident, domain_contains=lambda _v: True)


class TraceStep(NamedTuple):
    """One correction: 1-based index, residual value after it, term added.

    A named tuple, built by ``solve`` as ``tuple.__new__(TraceStep, ...)``, so
    recording a step runs no Python-level ``__init__`` or ``__new__``.
    """

    iteration: int
    residual_value: OrderedValue
    term: Any


@dataclass(frozen=True)
class SolveResult:
    solution: Any
    residual_value: OrderedValue
    iterations: int
    exact: bool
    trace: tuple[TraceStep, ...]


def solve(
    spec: HomomorphismSpec,
    section: AsymptoticSection,
    b: Any,
    precision: OrderedValue = INFINITY,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Solve ``f(a) = b`` to the requested precision by strict correction.

    Stops as soon as the residual is exactly zero (``exact=True``) or its
    value reaches ``precision``; otherwise each step must strictly raise the
    residual's value.  ``residual_value`` reports the certified lower bound
    when the final residual is only known up to its own precision.  The
    solution is built once, as the domain's ``total`` of the corrections.
    """
    apply, correct = spec.apply, section.section
    sub, valuation = spec.codomain.sub, spec.codomain.valuation
    residual = b
    trace: list[TraceStep] = []
    determined = True
    try:
        value = valuation(residual)
    except IndeterminateValuation as e:
        value, determined = e.bound, False
    while True:
        exact = determined and value.finite is None
        if exact or value >= precision:
            solution = spec.domain.total([step.term for step in trace])
            return SolveResult(solution, value, len(trace), exact, tuple(trace))
        if not determined:
            raise IndeterminateValuation(
                "residual valuation undetermined below the requested precision",
                bound=value,
            )
        if len(trace) >= max_iter:
            raise IterationLimit(iterations=len(trace), residual_value=value)
        try:
            s = correct(residual)
        except SectionFailure as e:
            e.residual = residual
            raise
        new_residual = sub(residual, apply(s))
        try:
            new_value = valuation(new_residual)
        except IndeterminateValuation as e:
            new_value, determined = e.bound, False
        if not new_value > value:
            raise NoProgress(
                f"correction did not raise the residual value ({value!r} -> {new_value!r})"
            )
        residual, value = new_residual, new_value
        trace.append(tuple.__new__(TraceStep, (len(trace) + 1, value, s)))


def trace_entries(result: SolveResult, group: ValueGroup) -> list[dict]:
    """One JSON-ready dict per correction: iteration, residual value, term."""
    return [
        {
            "iter": step.iteration,
            "residual_value": ov_format(group, step.residual_value),
            "term": str(step.term),
        }
        for step in result.trace
    ]


# -- hypothesis checks (sample-based, reported, never assumed) -------------


def _value_pair_violations(
    observed: Sequence[tuple[OrderedValue, OrderedValue]],
) -> tuple[int, list[str]]:
    """Pairs checked and violations over all pairs of (value, image value).

    Each pair is put in ascending domain order first, so the verdict does not
    depend on sample order.  Sorted by value, the map passes on all pairs
    exactly when it passes on neighbours (equal values, equal images; rising
    values, strictly rising images), by transitivity; only a failure there
    pays for the scan over all pairs that lists every violation.
    """
    ordered = sorted(observed, key=itemgetter(0))
    if all(
        w1 == w2 if v1 == v2 else w1 < w2
        for (v1, w1), (v2, w2) in zip(ordered, ordered[1:])
    ):
        return len(observed) * (len(observed) - 1) // 2, []
    violations = []
    for (v1, w1), (v2, w2) in itertools.combinations(observed, 2):
        if v2 < v1:
            (v1, w1), (v2, w2) = (v2, w2), (v1, w1)
        if v1 == v2 and w1 != w2:
            violations.append(
                f"not well defined: value {v1!r} maps to both {w1!r} and {w2!r}"
            )
        elif v1 < v2 and not w1 < w2:
            violations.append(
                f"order not strictly preserved: {v1!r}<{v2!r} but {w1!r}>={w2!r}"
            )
    return len(observed) * (len(observed) - 1) // 2, violations


def check_value_map_order(
    spec: HomomorphismSpec, section_samples: Sequence[Any]
) -> CheckReport:
    """The induced map on values is well defined and strictly order preserving.

    Flags sampled pairs s, s' with equal values but images of different
    values, and pairs with strictly increasing values whose image values fail
    to increase strictly.
    """
    observed = [
        (spec.domain.valuation(s), spec.codomain.valuation(spec.apply(s)))
        for s in section_samples
    ]
    checked, violations = _value_pair_violations(observed)
    return CheckReport("value_map_order", checked, tuple(violations))


def check_value_monotonicity(
    spec: HomomorphismSpec, pairs: Sequence[tuple[Any, Any]]
) -> CheckReport:
    """v(a) >= v(s) must force w(f(a)) >= w(f(s)) for section elements s."""
    violations = []
    for a, s in pairs:
        va, vs = spec.domain.valuation(a), spec.domain.valuation(s)
        if not va >= vs:
            continue  # vacuous antecedent
        wa = spec.codomain.valuation(spec.apply(a))
        ws = spec.codomain.valuation(spec.apply(s))
        if not wa >= ws:
            violations.append(
                f"v(a)={va!r}>=v(s)={vs!r} but w(f(a))={wa!r}<w(f(s))={ws!r}"
            )
    return CheckReport("value_monotonicity", len(pairs), tuple(violations))


def check_section_progress(
    spec: HomomorphismSpec, section: AsymptoticSection, targets: Sequence[Any]
) -> CheckReport:
    """Every sampled nonzero target must be strictly improved by the section.

    Also verifies the two consequences the engine relies on: the correction's
    image has the same value as the target, and the correction lies in the
    distinguished subset.
    """
    violations = []
    for b in targets:
        wb = spec.codomain.valuation(b)
        try:
            s = section.section(b)
        except SectionFailure as e:
            violations.append(f"section stuck at target of value {wb!r}: {e}")
            continue
        if not section.contains(s):
            violations.append("section output outside the distinguished subset")
            continue
        fs = spec.apply(s)
        residual_value = spec.codomain.valuation_lower_bound(spec.codomain.sub(b, fs))
        if not residual_value > wb:
            violations.append(
                f"no strict improvement: w(b)={wb!r}, w(b-f(s))={residual_value!r}"
            )
        elif spec.codomain.valuation(fs) != wb:
            violations.append(
                f"value agreement broken: w(f(s))={spec.codomain.valuation(fs)!r} != w(b)={wb!r}"
            )
    return CheckReport("section_progress", len(targets), tuple(violations))


def verify_section_injectivity(
    spec: HomomorphismSpec, pairs: Sequence[tuple[Any, Any]]
) -> CheckReport:
    """Distinct section elements must have distinct images."""
    violations = []
    for s1, s2 in pairs:
        if spec.domain.eq(s1, s2):
            continue
        if spec.codomain.eq(spec.apply(s1), spec.apply(s2)):
            violations.append("distinct section elements with equal images")
    return CheckReport("section_injectivity", len(pairs), tuple(violations))


def verify_value_map(
    value_map: ValueMap, spec: HomomorphismSpec, section_samples: Sequence[Any]
) -> CheckReport:
    """Round-trip and monotonicity audit of a claimed value map.

    For each sampled section element: forward(v(s)) must equal w(f(s)), the
    inverse must undo the forward map there, and forward must be strictly
    monotone across all observed value pairs.
    """
    observed = []
    violations = []
    for s in section_samples:
        vs = spec.domain.valuation(s)
        ws = spec.codomain.valuation(spec.apply(s))
        observed.append((vs, ws))
        fwd = value_map.forward(vs)
        if fwd != ws:
            violations.append(f"forward({vs!r})={fwd!r} but observed image value {ws!r}")
            continue
        if not ws.is_infinite and value_map.inverse(ws) != vs:
            violations.append(f"inverse(forward({vs!r})) != {vs!r}")
            continue
        if not vs.is_infinite and not value_map.domain_contains(vs):
            violations.append(f"achieved value {vs!r} rejected by domain test")
    pairs, pair_violations = _value_pair_violations(observed)
    checked = len(observed) + pairs
    return CheckReport("value_map_roundtrip", checked, tuple(violations + pair_violations))


# -- ball transport --------------------------------------------------------


def image_ball(
    spec: HomomorphismSpec, value_map: ValueMap, a: Any, alpha: OrderedValue
) -> Ball:
    """The ball ``B(f(a), forward(alpha))``; under the checked hypotheses this
    is exactly the image of ``B(a, alpha)``."""
    if alpha.is_infinite:
        return Ball(spec.codomain, spec.apply(a), INFINITY)
    if not value_map.domain_contains(alpha):
        raise UnmappedValue(f"radius {alpha!r} is not an achieved domain value")
    return Ball(spec.codomain, spec.apply(a), value_map.forward(alpha))


def pull_nest(
    spec: HomomorphismSpec,
    section: AsymptoticSection,
    value_map: ValueMap,
    target_nest: Nest | Sequence[Ball],
    precision: OrderedValue = INFINITY,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[Nest, Any]:
    """Pull a finite nest of codomain balls back through ``f``.

    Each target center is solved to ``precision`` and each radius is carried
    through the inverse value map; the resulting domain balls are validated as
    a nest and the smallest ball's center witnesses the intersection.  Its
    image lies in every target ball up to ``precision``.  All target radii
    must be finite.
    """
    nest = target_nest if isinstance(target_nest, Nest) else Nest(tuple(target_nest))
    pulled = []
    for ball in nest:
        if ball.radius.is_infinite:
            raise ValueError("pull_nest needs finite radii in the target nest")
        result = solve(spec, section, ball.center, precision=precision, max_iter=max_iter)
        pulled.append(
            Ball(spec.domain, result.solution, value_map.inverse(ball.radius))
        )
    domain_nest = Nest(tuple(pulled))
    return domain_nest, intersect_finite_nest(domain_nest)
