"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Input text does not conform to the series / pattern / value grammar."""


class EmptySupport(ValueError):
    """Requested the leading term of a series with no stored terms."""


class IndeterminateValuation(ArithmeticError):
    """The valuation is not determined at the carried precision.

    ``bound`` is the best known lower bound on the true valuation (the
    truncation cutoff of the element), when one is available.
    """

    def __init__(self, message="valuation not determined at this precision", bound=None):
        super().__init__(message)
        self.bound = bound


class InvalidNest(ValueError):
    """Two balls in the collection are inclusion-incomparable (disjoint)."""


class UnmappedValue(ValueError):
    """A value lies outside the domain or range of the value correspondence."""


class AmbiguousShift(ParseError):
    """The exponent shift of a derivation is not injective where it matters."""

    def __init__(self, exponent):
        super().__init__(f"shift map has multiple admissible preimages for exponent {exponent}")
        self.exponent = exponent


class SolveError(Exception):
    """Base class for failures of the iterative correction engine."""


class SectionFailure(SolveError):
    """The section oracle cannot improve the current residual.

    ``residual`` is attached by the solver when the failure surfaces inside a
    solve run, and is ``None`` otherwise.
    """

    residual = None


class Obstruction(SectionFailure):
    """No admissible preimage exponent exists for the residual's leading term."""

    def __init__(self, exponent):
        super().__init__(f"obstruction at exponent {exponent}")
        self.exponent = exponent


class NotPseudoDirect(SectionFailure):
    """No component assignment witnesses pseudo-directness for this element."""


class NoProgress(SolveError):
    """The section returned a term but the residual value did not strictly rise."""


class IterationLimit(SolveError):
    """The iteration budget ran out before the precision target was reached."""

    def __init__(self, iterations, residual_value):
        super().__init__(f"iteration limit reached after {iterations} steps")
        self.iterations = iterations
        self.residual_value = residual_value
