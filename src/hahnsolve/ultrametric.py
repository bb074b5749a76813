"""Abelian groups with an ultrametric valuation: balls, nests, intersection.

A valuation assigns each group element a value in an ordered group extended by
a top element, taking the top value exactly at zero and satisfying

    v(a - b)  >=  min(v(a), v(b)),

with equality whenever ``v(a) != v(b)``.  Closed balls ``{x : v(x - c) >= r}``
then behave like ultrametric balls: any point of a ball is a center, and two
balls are either nested or disjoint.

An element known only up to a precision has no exact valuation, but each
space certifies a lower bound on it (``valuation_lower_bound``).  Membership
in a ball is decided from that bound, and refused with
``IndeterminateValuation`` only when the radius lies beyond it.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import InvalidNest
from .reporting import CheckReport
from .valuegroups import OrderedValue, ValueGroup

Element = Any


class ValuedGroup(ABC):
    """Abelian group together with an ultrametric valuation."""

    group: ValueGroup  # value group of the valuation

    @property
    @abstractmethod
    def zero(self) -> Element: ...

    @abstractmethod
    def add(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def neg(self, a: Element) -> Element: ...

    @abstractmethod
    def valuation(self, a: Element) -> OrderedValue: ...

    def valuation_lower_bound(self, a: Element) -> OrderedValue:
        """Greatest lower bound the data certifies for ``v(a)``: the valuation
        itself wherever that is determined."""
        return self.valuation(a)

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def total(self, parts: Sequence[Element]) -> Element:
        """The sum of ``parts``: the left fold of ``add`` from ``zero``."""
        return functools.reduce(self.add, parts, self.zero)

    def is_zero(self, a: Element) -> bool:
        return self.valuation(a).is_infinite

    def eq(self, a: Element, b: Element) -> bool:
        return self.is_zero(self.sub(a, b))


@dataclass(frozen=True)
class Ball:
    """Closed ball of the given radius around ``center`` in ``space``."""

    space: ValuedGroup
    center: Element
    radius: OrderedValue

    def contains(self, point: Element) -> bool:
        """Whether ``v(center - point) >= radius``.  A certified lower bound at
        or above the radius decides it; below the radius the exact valuation
        is read, which raises ``IndeterminateValuation`` when it is unknown."""
        space, radius = self.space, self.radius
        diff = space.sub(self.center, point)
        return space.valuation_lower_bound(diff) >= radius or space.valuation(diff) >= radius

    def subset(self, other: "Ball") -> bool:
        """Containment test: centered inside ``other`` and at least as small.

        A ball lies inside another exactly when its center does and its radius
        is at least the other's; no point-by-point scan is needed.
        """
        return other.contains(self.center) and self.radius >= other.radius


def check_ultrametric(
    space: ValuedGroup, pairs: Sequence[tuple[Element, Element]]
) -> CheckReport:
    """Check the valuation axioms on sampled element pairs.

    Verifies, per pair (a, b): the triangle law for v(a - b), the sharpened
    equality when v(a) != v(b), symmetry of v under negation, and that the top
    value occurs exactly at zero (via a - a).
    """
    violations = []
    for a, b in pairs:
        va, vb = space.valuation(a), space.valuation(b)
        diff = space.sub(a, b)
        vd = space.valuation(diff)
        lower = min(va, vb)
        if vd < lower:
            violations.append(f"triangle law: v(a-b)={vd!r} < min={lower!r}")
            continue
        if va != vb and vd != lower:
            violations.append(
                f"sharp triangle: v(a)={va!r} != v(b)={vb!r} but v(a-b)={vd!r} != min"
            )
            continue
        if space.valuation(space.neg(a)) != va:
            violations.append(f"negation symmetry: v(-a) != v(a)={va!r}")
            continue
        if not space.valuation(space.sub(a, a)).is_infinite:
            violations.append("definiteness: v(a-a) is not the top value")
    return CheckReport(name="ultrametric", checked=len(pairs), violations=tuple(violations))


@dataclass(frozen=True)
class Nest:
    """A finite chain of balls, totally ordered by inclusion.

    Stored largest first, so the last ball is the smallest.  Construction
    sorts the balls by radius and raises ``InvalidNest`` if any two fail to
    nest.
    """

    balls: tuple[Ball, ...]

    def __post_init__(self):
        if not self.balls:
            raise InvalidNest("a nest needs at least one ball")
        # in an ultrametric space two balls meet only if one contains the
        # other, so sorted by radius they nest exactly when each contains
        # the next one's center
        ordered = sorted(self.balls, key=lambda b: b.radius)
        for outer, inner in zip(ordered, ordered[1:]):
            if not outer.contains(inner.center):
                raise InvalidNest("balls are neither nested nor equal")
        object.__setattr__(self, "balls", tuple(ordered))

    @property
    def smallest(self) -> Ball:
        return self.balls[-1]

    def __iter__(self):
        return iter(self.balls)


def intersect_finite_nest(balls: Sequence[Ball]) -> Element:
    """A point common to all balls of a finite nest.

    For a finite chain the smallest ball is contained in all others, so its
    center witnesses the intersection.  Raises ``InvalidNest`` when the balls
    do not form a chain or the sequence is empty.
    """
    nest = balls if isinstance(balls, Nest) else Nest(tuple(balls))
    return nest.smallest.center
