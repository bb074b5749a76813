"""Shared spaces, instances and hypothesis strategies for the suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

import hahnsolve as hs

QZ = hs.SeriesSpace(hs.QQ, hs.INTEGERS)
QRAT = hs.SeriesSpace(hs.QQ, hs.RATIONALS)
F5Z = hs.SeriesSpace(hs.PrimeField(5), hs.INTEGERS)
QLEX = hs.SeriesSpace(hs.QQ, hs.LEX2)


@pytest.fixture
def qz() -> hs.SeriesSpace:
    return QZ


@pytest.fixture
def f5z() -> hs.SeriesSpace:
    return F5Z


@pytest.fixture
def euler_dspec() -> hs.DifferentialFieldSpec:
    return hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.euler(hs.QQ, hs.INTEGERS))


@pytest.fixture
def ddt_dspec() -> hs.DifferentialFieldSpec:
    return hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.ddt(hs.QQ, hs.INTEGERS))


def coefficients():
    return st.fractions(min_value=-9, max_value=9, max_denominator=6)


def exponents(lo: int = -10, hi: int = 10, group: hs.ValueGroup = hs.INTEGERS):
    """Exponents of ``group`` from the window: integers, fractions of
    denominator at most 4, or lexicographic pairs of integers."""
    if group == hs.RATIONALS:
        return st.fractions(min_value=lo, max_value=hi, max_denominator=4)
    if group == hs.LEX2:
        return st.tuples(exponents(lo, hi), exponents(lo, hi))
    return st.integers(min_value=lo, max_value=hi)


def exact_series(lo: int = -10, hi: int = 10, max_terms: int = 8, space=QZ):
    """Exact series of ``space``, over the rationals with integer exponents
    by default."""
    return st.lists(
        st.tuples(coefficients(), exponents(lo, hi, space.group)), max_size=max_terms
    ).map(lambda pairs: space.series(pairs))


def nonzero_exact_series(lo: int = -10, hi: int = 10, max_terms: int = 8):
    return exact_series(lo, hi, max_terms).filter(lambda s: bool(s.terms))


def truncated_series(lo: int = -10, hi: int = 10, max_terms: int = 8, space=QZ):
    """Series carrying a finite precision bound from the same window."""
    return st.builds(
        lambda s, cut: s.truncate(hs.OrderedValue(cut)),
        exact_series(lo, hi, max_terms, space),
        exponents(lo, hi + 4, space.group),
    )


def refused(bound: int) -> hs.IndeterminateValuation:
    """A table answer: the read raises, certifying only ``bound``."""
    return hs.IndeterminateValuation(bound=hs.OrderedValue(bound))


def assert_answer(read, answer) -> None:
    """``read()`` returns ``answer``, or raises with the same bound when
    ``answer`` is a ``refused`` one."""
    if isinstance(answer, hs.IndeterminateValuation):
        with pytest.raises(hs.IndeterminateValuation) as excinfo:
            read()
        assert excinfo.value.bound == answer.bound
    else:
        assert read() == answer
