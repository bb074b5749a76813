"""Pseudo-direct witnesses, product groups, decomposition, span systems."""

import functools
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs
from hahnsolve import series as series_module

from .conftest import F5Z, QZ, assert_answer, nonzero_exact_series, refused

OV = hs.OrderedValue
INF = hs.INFINITY

EVEN = hs.SupportSubgroup("even", lambda g: g % 2 == 0)
ODD = hs.SupportSubgroup("odd", lambda g: g % 2 == 1)


def tup(*series):
    return hs.ProductElement(tuple(series))


def blurry(cut):
    """Zero only to precision: ``O(cut)``."""
    return QZ.series([], OV(cut))


# (components, their least valuation); a tie goes to the determined component
MIN_TABLE = {
    "least value": ((QZ.monomial(1, 2), QZ.monomial(1, 3)), OV(2)),
    "tie at a precision bound": ((blurry(5), QZ.monomial(1, 5)), OV(5)),
    "tie, other order": ((QZ.monomial(1, 5), blurry(5)), OV(5)),
    "tie with a truncated component": ((QZ.series([(1, 5)], OV(7)), blurry(5)), OV(5)),
    "a value undercuts the bound": ((blurry(5), QZ.monomial(1, 2)), OV(2)),
    "the bound undercuts every value": ((blurry(5), QZ.monomial(1, 7)), refused(5)),
    "lone O(5)": ((blurry(5),), refused(5)),
    "least of two bounds": ((blurry(5), blurry(3)), refused(3)),
    "O(4) beside an exact zero": ((QZ.zero, blurry(4)), refused(4)),
    "all exact zeros": ((QZ.zero, QZ.zero), INF),
    "empty tuple": ((), INF),
}


F7Z = hs.SeriesSpace(hs.PrimeField(7), hs.INTEGERS)
PRODUCT_SPACES = [
    hs.SeriesSpace(field, group)
    for field in (hs.QQ, hs.PrimeField(7))
    for group in (hs.INTEGERS, hs.RATIONALS)
]


def _components(space):
    """Exact zeros, zeros only to a precision (``O(g)``) and series with
    terms, exact or truncated."""
    if space.group == hs.RATIONALS:
        elements = st.fractions(-6, 6, max_denominator=3)
    else:
        elements = st.integers(-6, 6)
    pairs = st.lists(st.tuples(st.integers(-9, 9), elements), min_size=1, max_size=6)
    return st.one_of(
        st.just(space.zero),
        elements.map(lambda g: space.series([], OV(g))),
        st.builds(space.series, pairs, st.one_of(st.just(INF), elements.map(OV))),
    )


@st.composite
def product_operands(draw, count=2):
    """``count`` equal-length tuples over one space, of ``_components``."""
    space = draw(st.sampled_from(PRODUCT_SPACES))
    k = draw(st.integers(1, 5))
    tuples = st.lists(_components(space), min_size=k, max_size=k).map(lambda c: tup(*c))
    return (space, *(draw(tuples) for _ in range(count)))


def _merged(space, components):
    """The components merged by the normaliser, none skipped: every term and
    the least truncation."""
    return hs.make_series(
        space.field,
        space.group,
        [t for s in components for t in s.terms],
        min(s.truncation for s in components),
    )


class TestMinValuation:
    @pytest.mark.parametrize("parts, answer", MIN_TABLE.values(), ids=MIN_TABLE)
    def test_min_valuation(self, parts, answer):
        assert_answer(lambda: hs.min_valuation(tup(*parts)), answer)


class TestSumAndProduct:
    def test_sum_map(self):
        t = tup(QZ.monomial(1, 2), QZ.monomial(1, 3))
        assert hs.sum_map(t) == QZ.series([(1, 2), (1, 3)])

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            hs.sum_map(hs.ProductElement(()))

    def test_product_group_operations(self):
        product = hs.ProductGroup((QZ, QZ))
        a = tup(QZ.monomial(1, 1), QZ.monomial(2, 0))
        b = tup(QZ.monomial(1, 1), QZ.zero)
        assert product.group == hs.INTEGERS
        assert product.zero == tup(QZ.zero, QZ.zero)
        assert product.add(a, b) == tup(QZ.monomial(2, 1), QZ.monomial(2, 0))
        assert product.sub(a, b) == tup(QZ.zero, QZ.monomial(2, 0))
        assert product.valuation(a) == OV(0)

    @given(product_operands())
    def test_identity_skip_matches_the_full_merge(self, operands):
        space, a, b = operands
        product = hs.ProductGroup(tuple(space for _ in a))
        expected = tup(*(_merged(space, (x, y)) for x, y in zip(a, b)))
        assert product.add(a, b) == expected
        assert hs.sum_map(a) == _merged(space, a.components)
        assert hs.sum_map(product.add(a, b)) == _merged(space, expected.components)

    def test_precision_only_zero_cuts_the_sum(self):
        lead = hs.parse_series(hs.QQ, hs.INTEGERS, "t^1 + t^4")
        blurry = hs.parse_series(hs.QQ, hs.INTEGERS, "O(2)")
        cut = hs.parse_series(hs.QQ, hs.INTEGERS, "t^1 + O(2)")
        assert hs.sum_map(tup(lead, blurry)) == cut
        assert hs.sum_map(tup(blurry, lead)) == cut
        assert hs.sum_map(tup(QZ.zero, lead, QZ.zero)) is lead
        product = hs.ProductGroup((QZ, QZ))
        assert product.add(tup(lead, lead), tup(blurry, QZ.zero)) == tup(cut, lead)

    @given(product_operands(count=4), st.integers(0, 4))
    def test_total_matches_the_fold(self, operands, count):
        space, *parts = operands
        product = hs.ProductGroup(tuple(space for _ in parts[0]))
        parts = parts[:count]
        assert product.total(parts) == functools.reduce(product.add, parts, product.zero)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_total_of_a_split_in_order(self, k):
        # one monomial per part, in the component a residue-class family gives
        # it: each component's terms ascend from part to part
        product = hs.ProductGroup((F7Z,) * k)
        parts = [
            tup(*(F7Z.monomial(g + 1, g) if i == g % k else F7Z.zero for i in range(k)))
            for g in range(-3, 9)
        ]
        got = product.total(parts)
        assert got == functools.reduce(product.add, parts, product.zero)
        assert hs.sum_map(got) == F7Z.series([(g + 1, g) for g in range(-3, 9)])

    def test_total_of_parts_that_cancel_and_of_none(self):
        product = hs.ProductGroup((QZ, QZ))
        a = tup(QZ.series([(1, 1), (2, 4)]), QZ.monomial(3, 0))
        assert product.total([a, product.neg(a)]) == product.zero
        assert product.total([]) == product.zero
        cut = tup(blurry(3), QZ.zero)
        expected = tup(QZ.series([(1, 1)], OV(3)), QZ.monomial(3, 0))
        assert product.total([a, cut]) == product.add(a, cut) == expected

    def test_total_refuses_a_part_of_another_width_or_space(self):
        product = hs.ProductGroup((QZ, QZ))
        one = tup(QZ.monomial(1, 1), QZ.zero)
        for stray in (tup(QZ.monomial(1, 2)), tup(QZ.zero, QZ.zero, QZ.monomial(1, 2))):
            with pytest.raises(ValueError, match="must have 2 components"):
                product.total([one, stray])
        with pytest.raises(ValueError, match="different fields or value groups"):
            product.total([one, tup(QZ.zero, F7Z.monomial(1, 2))])

    def test_product_group_is_ultrametric(self):
        import random

        product = hs.ProductGroup((QZ, QZ))
        rng = random.Random(3)
        pairs = [
            (
                tup(hs.random_series(rng, QZ), hs.random_series(rng, QZ)),
                tup(hs.random_series(rng, QZ), hs.random_series(rng, QZ)),
            )
            for _ in range(100)
        ]
        assert hs.check_ultrametric(product, pairs).ok


class TestWitnessChecker:
    def test_assigned_leading_term_is_a_witness(self):
        a = QZ.monomial(1, 2)
        assert hs.check_pseudo_direct_witness(a, tup(a, QZ.zero))

    def test_value_mismatch_fails(self):
        # the tuple sums to something of higher value than the target
        a = QZ.monomial(1, 2)
        assert not hs.check_pseudo_direct_witness(a, tup(QZ.zero, QZ.monomial(1, 3)))

    def test_truncated_target_is_certified_by_the_bound(self):
        # a - sum is O(5): zero to its precision, with value at least 5 > v(a)
        a = QZ.series([(1, 1), (1, 2)], OV(5))
        assert hs.check_pseudo_direct_witness(a, tup(QZ.monomial(1, 2), QZ.monomial(1, 1)))

    def test_truncated_target_keeps_the_value_condition(self):
        # a - sum = t^1 + O(5) has value 1 = v(a)
        a = QZ.series([(1, 1), (1, 2)], OV(5))
        assert not hs.check_pseudo_direct_witness(a, tup(QZ.monomial(1, 2), QZ.zero))

    def test_zero_tuple_fails_for_nonzero_target(self):
        a = QZ.monomial(1, 2)
        assert not hs.check_pseudo_direct_witness(a, tup(QZ.zero, QZ.zero))

    def test_cancelling_components_fail(self):
        # components of value 0 summing to value 1 break the first condition
        a = QZ.monomial(2, 1)
        t = tup(QZ.series([(1, 0), (2, 1)]), QZ.monomial(-1, 0))
        assert not hs.check_pseudo_direct_witness(a, t)


class TestSupportSection:
    def test_leading_term_goes_to_matching_subgroup(self):
        a = QZ.series([(1, 3), (1, 6)])
        t = hs.pseudo_direct_section([EVEN, ODD], a)
        assert t == tup(QZ.zero, QZ.monomial(1, 3))

    def test_lowest_index_wins_ties(self):
        everything = hs.SupportSubgroup("all", lambda g: True)
        t = hs.pseudo_direct_section([everything, EVEN], QZ.monomial(1, 2))
        assert t == tup(QZ.monomial(1, 2), QZ.zero)

    def test_unmatched_exponent_is_not_pseudo_direct(self):
        with pytest.raises(hs.NotPseudoDirect) as excinfo:
            hs.pseudo_direct_section([EVEN], QZ.monomial(1, 3))
        assert "3" in str(excinfo.value)

    @pytest.mark.parametrize("space", [QZ, F7Z], ids=lambda s: s.field.name)
    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_the_normalised_build(self, space, k):
        # the residue family mod:k:0..k-1 against k zeros and a monomial
        # built through the normaliser
        subgroups = [hs.parse_subgroup(space.field, space.group, f"mod:{k}:{r}") for r in range(k)]
        rng = random.Random(k)
        for _ in range(40):
            a = hs.random_series(rng, space, nonzero=True)
            c, g = a.leading_term()
            expected = [space.zero for _ in range(k)]
            expected[g % k] = space.monomial(c, g)
            got = hs.pseudo_direct_section(subgroups, a)
            assert got == tup(*expected)
            # the checking constructor accepts every component
            assert all(hs.Series(s.field, s.group, s.terms, s.truncation) == s for s in got)

    def test_no_subgroups_rejected(self):
        with pytest.raises(ValueError):
            hs.pseudo_direct_section([], QZ.monomial(1, 1))

    def test_mixed_family_takes_the_first_part(self):
        # t^1 is odd, so the span takes it; t^2 goes to EVEN, the first part
        span = hs.SpanSubgroup("s", (QZ.series([(1, 1), (1, 3)]), QZ.monomial(1, 2)))
        t = hs.pseudo_direct_section([EVEN, span], QZ.series([(2, 1), (1, 4)]))
        assert t == tup(QZ.zero, QZ.series([(2, 1), (2, 3)]))
        t = hs.pseudo_direct_section([EVEN, span], QZ.monomial(5, 2))
        assert t == tup(QZ.monomial(5, 2), QZ.zero)
        with pytest.raises(hs.NotPseudoDirect) as excinfo:
            hs.pseudo_direct_section([EVEN, span], QZ.monomial(1, 5))
        assert str(excinfo.value) == "no subgroup has an element of value 5"


class TestDecompose:
    def test_even_odd_split(self):
        a = QZ.series([(1, -2), (3, 0), (1, 3), (2, 4)])
        parts = hs.decompose([EVEN, ODD], a)
        assert parts.components[0] == QZ.series([(1, -2), (3, 0), (2, 4)])
        assert parts.components[1] == QZ.monomial(1, 3)
        assert hs.sum_map(parts) == a

    def test_prime_field_split(self):
        a = F5Z.series([(1, -2), (1, 1), (1, 4)])
        result = hs.decompose_solve([EVEN, ODD], a)
        assert result.exact
        assert result.iterations == 3
        assert result.solution.components[0] == F5Z.series([(1, -2), (1, 4)])
        assert result.solution.components[1] == F5Z.monomial(1, 1)
        assert hs.check_pseudo_direct_witness(a, result.solution)

    def test_zero_target(self):
        result = hs.decompose_solve([EVEN, ODD], QZ.zero)
        assert result.exact
        assert result.iterations == 0
        assert result.solution == hs.ProductGroup((QZ, QZ)).zero

    def test_three_way_split(self):
        subs = [
            hs.parse_subgroup(hs.QQ, hs.INTEGERS, "mod:3:0"),
            hs.parse_subgroup(hs.QQ, hs.INTEGERS, "mod:3:1"),
            hs.parse_subgroup(hs.QQ, hs.INTEGERS, "mod:3:2"),
        ]
        a = QZ.series([(1, 0), (2, 1), (3, 2), (4, 3), (5, 7)])
        parts = hs.decompose(subs, a)
        assert parts.components[0] == QZ.series([(1, 0), (4, 3)])
        assert parts.components[1] == QZ.series([(2, 1), (5, 7)])
        assert parts.components[2] == QZ.monomial(3, 2)

    def test_blurry_target_to_its_bound(self):
        a = QZ.series([(1, 1), (1, 2)], OV(4))
        result = hs.decompose_solve([EVEN, ODD], a, precision=OV(4))
        assert not result.exact
        assert result.residual_value == OV(4)
        assert result.solution.components[0] == QZ.monomial(1, 2)
        assert result.solution.components[1] == QZ.monomial(1, 1)

    def test_unsplittable_target_names_residual(self):
        a = QZ.series([(1, 2), (1, 3)])
        only_even = [EVEN]
        with pytest.raises(hs.NotPseudoDirect) as excinfo:
            hs.decompose(only_even, a)
        assert excinfo.value.residual == QZ.monomial(1, 3)

    @given(nonzero_exact_series(max_terms=6))
    def test_even_odd_matches_parity_filter(self, a):
        parts = hs.decompose([EVEN, ODD], a)
        evens = QZ.series([(c, g) for c, g in a.terms if g % 2 == 0])
        odds = QZ.series([(c, g) for c, g in a.terms if g % 2 == 1])
        assert parts.components == (evens, odds)
        assert hs.check_pseudo_direct_witness(a, parts) or not a.terms


class TestSpanSubgroups:
    def test_membership(self):
        sub = hs.SpanSubgroup("line", (QZ.series([(1, 0), (1, 1)]),))
        assert sub.contains_series(QZ.series([(2, 0), (2, 1)]))
        assert sub.contains_series(QZ.zero)
        assert not sub.contains_series(QZ.series([(1, 0), (2, 1)]))

    def test_generators_must_be_exact_and_present(self):
        with pytest.raises(ValueError):
            hs.SpanSubgroup("bad", ())
        with pytest.raises(ValueError):
            hs.SpanSubgroup("bad", (QZ.series([(1, 0)], OV(3)),))

    def test_two_step_span_decomposition(self):
        one_plus_t = hs.SpanSubgroup("a1", (QZ.series([(1, 0), (1, 1)]),))
        just_t = hs.SpanSubgroup("a2", (QZ.monomial(1, 1),))
        a = QZ.series([(2, 0), (5, 1)])
        result = hs.decompose_solve([one_plus_t, just_t], a)
        assert result.exact
        assert result.iterations == 2
        assert result.solution.components[0] == QZ.series([(2, 0), (2, 1)])
        assert result.solution.components[1] == QZ.monomial(3, 1)

    def test_rank_one_counterexample_is_exact(self):
        # span{1 + t} against span{1}: the only combination summing to t has
        # both components of value 0, so no witness can exist
        a1 = hs.SpanSubgroup("a1", (QZ.series([(1, 0), (1, 1)]),))
        a2 = hs.SpanSubgroup("a2", (QZ.monomial(1, 0),))
        with pytest.raises(hs.NotPseudoDirect) as excinfo:
            hs.decompose([a1, a2], QZ.monomial(1, 1))
        assert str(excinfo.value).endswith("of value 1")

    def test_unreachable_leading_part(self):
        sub = hs.SpanSubgroup("high", (QZ.monomial(1, 2),))
        with pytest.raises(hs.NotPseudoDirect) as excinfo:
            hs.decompose([sub], QZ.monomial(1, 1))
        assert str(excinfo.value).endswith("of value 1")

    def test_generators_may_cancel_inside_one_subgroup(self):
        # (1 + t) - (1 - t) = 2t cancels at t^0 inside the second subgroup,
        # which leaves that component of value 1: everything goes there
        a1 = hs.SpanSubgroup("a1", (QZ.monomial(1, 0),))
        a2 = hs.SpanSubgroup(
            "a2", (QZ.series([(1, 0), (1, 1)]), QZ.series([(1, 0), (-1, 1)]))
        )
        parts = hs.decompose([a1, a2], QZ.monomial(2, 1))
        assert parts.components[0] == QZ.zero
        assert parts.components[1] == QZ.monomial(2, 1)

    def test_fractional_coefficients_give_the_witness(self):
        # t = (1/2)(1 + t) - (1/2)(1 - t): the witness (0, t) needs the
        # coefficients 1/2 and -1/2, which no integer offset reaches
        a1 = hs.SpanSubgroup("a1", (QZ.monomial(1, 0),))
        a2 = hs.SpanSubgroup(
            "a2", (QZ.series([(1, 0), (1, 1)]), QZ.series([(1, 0), (-1, 1)]))
        )
        a = QZ.monomial(1, 1)
        parts = hs.decompose([a1, a2], a)
        assert parts.components == (QZ.zero, a)
        assert hs.check_pseudo_direct_witness(a, parts)

    @pytest.mark.parametrize("patterns", [[], [EVEN]], ids=["spans", "mixed"])
    def test_span_section_scales_without_normalising(self, monkeypatch, patterns):
        # Three spans with five generators, the target a combination of all
        # of them: each span's basis scales its rows as it is built, and
        # every correction step a span takes scales one basis row by the
        # residual's leading coefficient.  Scaling keeps the term order, so
        # none of that may re-normalise.  In the mixed family EVEN takes
        # the even leading terms and the spans the odd ones.
        gens = [
            QZ.series([(1, 0), (2, 2)]),
            QZ.series([(3, 1), (1, 4)]),
            QZ.series([(1, 2), (5, 3)]),
            QZ.series([(2, 3), (-1, 5)]),
            QZ.series([(1, 5), (1, 6)]),
        ]
        subgroups = patterns + [
            hs.SpanSubgroup("a1", tuple(gens[:1])),
            hs.SpanSubgroup("a2", tuple(gens[1:3])),
            hs.SpanSubgroup("a3", tuple(gens[3:])),
        ]
        a = QZ.zero
        for k, u in enumerate(gens, start=1):
            a = a.add(u.scale(Fraction(k)))
        scale, make_series = hs.Series.scale, series_module.make_series
        scales = inside = normalised = 0

        def counting_scale(s, c):
            nonlocal scales, inside
            scales += 1
            inside += 1
            try:
                return scale(s, c)
            finally:
                inside -= 1

        def counting_make_series(*args, **kwargs):
            nonlocal normalised
            normalised += inside > 0
            return make_series(*args, **kwargs)

        monkeypatch.setattr(hs.Series, "scale", counting_scale)
        monkeypatch.setattr(series_module, "make_series", counting_make_series)
        parts = hs.decompose(subgroups, a)
        assert hs.sum_map(parts) == a
        assert scales >= len(gens)
        assert normalised == 0

    def test_lowest_index_wins_ties(self):
        # both spans take the value 1: the first takes the whole leading term
        line = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "span:{t^1}")
        t = hs.pseudo_direct_section([line, line], QZ.monomial(3, 1))
        assert t == tup(QZ.monomial(3, 1), QZ.zero)

    def test_span_needs_exact_target(self):
        sub = hs.SpanSubgroup("line", (QZ.monomial(1, 1),))
        with pytest.raises(ValueError):
            hs.decompose([sub], QZ.series([(1, 1)], OV(5)))


class TestSpanRefusalIsAProof:
    """The span section against every coefficient vector of small spans."""

    @pytest.mark.parametrize("p", [2, 3, 11])
    def test_refuses_exactly_when_no_vector_is_a_witness(self, p):
        # at this seed two GF(11) cases have witnesses only at nullspace
        # offsets outside [-3, 3], which a bounded integer search misses
        rng = random.Random(12)
        space = hs.SeriesSpace(hs.PrimeField(p), hs.INTEGERS)

        def draw():
            # a nonzero exact series supported on [0, 3]
            while True:
                s = space.series(
                    [(rng.randrange(1, p), e) for e in range(4) if rng.random() < 0.75]
                )
                if s.terms:
                    return s

        refusals = 0
        for _ in range(100):
            subgroups = [
                hs.SpanSubgroup(f"s{i}", tuple(draw() for _ in range(rng.randint(1, 2))))
                for i in range(rng.randint(1, 2))
            ]
            if rng.random() < 0.5:
                a = space.monomial(rng.randrange(1, p), rng.randrange(4))
            else:
                a = draw()
            try:
                parts = hs.pseudo_direct_section(subgroups, a)
            except hs.NotPseudoDirect:
                refusals += 1
                # every element of each span, one per coefficient vector
                spans = [
                    {
                        hs.sum_map(tup(*(u.scale(x) for u, x in zip(sub.generators, xs))))
                        for xs in product(range(p), repeat=len(sub.generators))
                    }
                    for sub in subgroups
                ]
                assert not any(
                    hs.check_pseudo_direct_witness(a, tup(*t)) for t in product(*spans)
                ), (a, [sub.generators for sub in subgroups])
                continue
            assert hs.check_pseudo_direct_witness(a, parts)
            assert all(
                sub.contains_series(s) for sub, s in zip(subgroups, parts.components)
            )
        assert 0 < refusals < 100


@st.composite
def mixed_families(draw):
    """A prime p in {2, 3, 5}, a shuffled family of 1-2 ``mod:``/``set:``
    patterns and 1-2 spans of 1-2 generators, and a nonzero exact target,
    all supported on the exponents [0, 5)."""
    p = draw(st.sampled_from([2, 3, 5]))
    space = hs.SeriesSpace(hs.PrimeField(p), hs.INTEGERS)
    window = range(5)

    def series(min_terms):
        exps = draw(st.sets(st.sampled_from(window), min_size=min_terms, max_size=4))
        return space.series([(draw(st.integers(1, p - 1)), e) for e in sorted(exps)])

    patterns = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            k = draw(st.integers(2, 4))
            text = f"mod:{k}:{draw(st.integers(0, k - 1))}"
        else:
            members = draw(st.sets(st.sampled_from(window), max_size=3))
            text = "set:{" + ",".join(map(str, sorted(members))) + "}"
        patterns.append(hs.parse_subgroup(space.field, space.group, text))
    spans = [
        hs.SpanSubgroup(f"s{i}", tuple(series(1) for _ in range(draw(st.integers(1, 2)))))
        for i in range(draw(st.integers(1, 2)))
    ]
    family = draw(st.permutations(patterns + spans))
    return p, family, series(1)


class TestMixedFamilies:
    """Families mixing patterns and spans, against brute force."""

    @given(mixed_families())
    def test_answers_are_witnesses_and_refusals_are_proofs(self, drawn):
        p, family, a = drawn
        try:
            parts = hs.decompose(family, a)
        except hs.NotPseudoDirect as e:
            g = e.residual.valuation().finite
            assert str(e) == f"no subgroup has an element of value {g}"
            for sub in family:
                if isinstance(sub, hs.SupportSubgroup):
                    assert not sub.pattern(g)
                    continue
                # every element of the span, one per coefficient vector
                for xs in product(range(p), repeat=len(sub.generators)):
                    element = hs.sum_map(tup(*(u.scale(x) for u, x in zip(sub.generators, xs))))
                    assert not element.terms or element.valuation().finite != g
            return
        assert hs.sum_map(parts) == a
        assert hs.check_pseudo_direct_witness(a, parts)
        assert all(sub.contains_series(s) for sub, s in zip(family, parts.components))


class TestSpanBasis:
    """Each span's echelon basis against every coefficient vector."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_keys_are_the_values_the_span_takes(self, p):
        rng = random.Random(p)
        space = hs.SeriesSpace(hs.PrimeField(p), hs.INTEGERS)
        for _ in range(60):
            # 1-3 generators supported on [0, 4), zero ones included
            gens = tuple(
                space.series([(rng.randrange(p), e) for e in range(4) if rng.random() < 0.6])
                for _ in range(rng.randint(1, 3))
            )
            if not any(u.terms for u in gens):
                continue
            sub = hs.SpanSubgroup("s", gens)
            elements = (
                hs.sum_map(tup(*(u.scale(x) for u, x in zip(gens, xs))))
                for xs in product(range(p), repeat=len(gens))
            )
            values = {s.valuation() for s in elements if s.terms}
            assert {OV(g) for g in sub.basis} == values, gens
            for g, row in sub.basis.items():
                assert row.leading_term() == (1, g) and row.valuation() == OV(g)
                assert sub.contains_series(row)

    def test_a_second_solve_reuses_the_basis(self):
        a1 = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "span:{1 + t^1; t^1 + t^2}")
        a2 = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "span:{t^2}")
        a = hs.parse_series(hs.QQ, hs.INTEGERS, "2 + 3*t^1 + t^2")
        assert "basis" not in vars(a1)
        first = hs.decompose_solve([a1, a2], a)
        basis = vars(a1)["basis"]
        assert hs.decompose_solve([a1, a2], a) == first
        assert a1.basis is basis


class TestParseSubgroup:
    def test_parity_patterns(self):
        even = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "even")
        odd = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "odd")
        assert even.contains_series(QZ.series([(1, -2), (1, 0)]))
        assert odd.contains_series(QZ.monomial(1, -1))
        assert not odd.contains_series(QZ.monomial(1, 2))

    @pytest.mark.parametrize(
        "group, exponents",
        [
            (hs.INTEGERS, list(range(-9, 10))),
            (hs.RATIONALS, [Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3)]),
        ],
        ids=["int", "rat"],
    )
    def test_parity_is_mod_two(self, group, exponents):
        for name, mod in (("even", "mod:2:0"), ("odd", "mod:2:1")):
            parity = hs.parse_subgroup(hs.QQ, group, name)
            residue = hs.parse_subgroup(hs.QQ, group, mod)
            assert parity.name == name
            assert [parity.pattern(g) for g in exponents] == [
                residue.pattern(g) for g in exponents
            ]

    def test_half_integers_are_neither_even_nor_odd(self):
        even, odd = (hs.parse_subgroup(hs.QQ, hs.RATIONALS, p) for p in ("even", "odd"))
        for g in (Fraction(1, 2), Fraction(3, 2)):
            assert not even.pattern(g) and not odd.pattern(g)
        assert even.pattern(Fraction(-2)) and odd.pattern(Fraction(3))

    def test_mod_pattern_handles_negatives(self):
        sub = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "mod:3:1")
        assert sub.contains_series(QZ.monomial(1, -2))
        assert sub.contains_series(QZ.monomial(1, 4))
        assert not sub.contains_series(QZ.monomial(1, 3))

    def test_set_pattern(self):
        sub = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "set:{-2, 5}")
        assert sub.contains_series(QZ.series([(1, -2), (1, 5)]))
        assert not sub.contains_series(QZ.monomial(1, 0))

    def test_span_pattern(self):
        sub = hs.parse_subgroup(hs.QQ, hs.INTEGERS, "span:{1 + t^1; t^2}")
        assert isinstance(sub, hs.SpanSubgroup)
        assert sub.contains_series(QZ.series([(3, 0), (3, 1), (1, 2)]))
        assert not sub.contains_series(QZ.monomial(1, 1))

    @pytest.mark.parametrize(
        "bad", ["prime", "mod:0:1", "mod:x:1", "set:{", "span:{}", "mod:3"]
    )
    def test_bad_patterns(self, bad):
        with pytest.raises(hs.ParseError):
            hs.parse_subgroup(hs.QQ, hs.INTEGERS, bad)
