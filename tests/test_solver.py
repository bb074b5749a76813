"""Correction engine: solve loop, failure modes, hypothesis audits, nests."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs

from .conftest import QZ, coefficients

OV = hs.OrderedValue
INF = hs.INFINITY

EULER_DSPEC = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.euler(hs.QQ, hs.INTEGERS))


@pytest.fixture
def euler_parts(euler_dspec):
    return hs.integration_instance(euler_dspec)


@pytest.fixture
def ddt_parts(ddt_dspec):
    return hs.integration_instance(ddt_dspec)


class TestSolveLoop:
    def test_zero_target_is_trivial(self, euler_parts):
        spec, section, _ = euler_parts
        result = hs.solve(spec, section, QZ.zero)
        assert result.exact
        assert result.solution == QZ.zero
        assert result.iterations == 0
        assert result.residual_value == INF
        assert result.trace == ()

    def test_two_term_exact_solve(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(Fraction(3, 2), 2), (Fraction(1, 5), 5)])
        result = hs.solve(spec, section, b)
        assert result.exact
        assert result.solution == QZ.series([(Fraction(3, 4), 2), (Fraction(1, 25), 5)])
        assert spec.apply(result.solution) == b
        assert result.iterations == 2

    def test_trace_records_strictly_rising_values(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(1, 1), (1, 3), (1, 7)])
        result = hs.solve(spec, section, b)
        assert [step.iteration for step in result.trace] == [1, 2, 3]
        values = [step.residual_value for step in result.trace]
        assert values == sorted(values)
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
        assert values[-1] == INF
        assert result.trace[0].term == QZ.monomial(1, 1)

    def test_precision_stop(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(Fraction(3, 2), 2), (Fraction(1, 5), 5)])
        result = hs.solve(spec, section, b, precision=OV(3))
        assert not result.exact
        assert result.iterations == 1
        assert result.solution == QZ.series([(Fraction(3, 4), 2)])
        assert result.residual_value == OV(5)

    def test_blurry_target_solved_to_its_own_bound(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(3, 2)], OV(4))
        result = hs.solve(spec, section, b, precision=OV(4))
        assert not result.exact
        assert result.iterations == 1
        assert result.solution == QZ.series([(Fraction(3, 2), 2)])
        assert result.residual_value == OV(4)

    def test_blurry_zero_at_precision_needs_no_work(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([], OV(5))
        result = hs.solve(spec, section, b, precision=OV(5))
        assert not result.exact
        assert result.iterations == 0
        assert result.solution == QZ.zero
        assert result.residual_value == OV(5)

    def test_blurry_target_below_precision_is_rejected(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([], OV(5))
        with pytest.raises(hs.IndeterminateValuation) as excinfo:
            hs.solve(spec, section, b, precision=OV(9))
        assert excinfo.value.bound == OV(5)

    def test_iteration_limit(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(1, 2), (1, 5)])
        with pytest.raises(hs.IterationLimit) as excinfo:
            hs.solve(spec, section, b, max_iter=1)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual_value == OV(5)

    def test_no_progress_from_lying_section(self, euler_parts):
        spec, _, _ = euler_parts
        lazy = hs.AsymptoticSection(section=lambda r: QZ.zero, contains=lambda s: True)
        with pytest.raises(hs.NoProgress):
            hs.solve(spec, lazy, QZ.monomial(1, 2))

    def test_section_failure_carries_residual(self, ddt_parts):
        spec, section, _ = ddt_parts
        b = QZ.series([(2, 3), (1, -1)])
        with pytest.raises(hs.Obstruction) as excinfo:
            hs.solve(spec, section, b)
        assert excinfo.value.exponent == -1
        assert excinfo.value.residual == b

    @given(
        st.lists(
            st.tuples(coefficients(), st.integers(-8, 8).filter(lambda g: g != 0)),
            min_size=1,
            max_size=6,
        )
    )
    def test_exact_solves_invert_the_map(self, pairs):
        spec, section, _ = hs.integration_instance(EULER_DSPEC)
        b = QZ.series(pairs)
        result = hs.solve(spec, section, b)
        assert result.exact
        assert spec.apply(result.solution) == b
        assert result.iterations == len(b.terms)


class TestTraceJson:
    def test_json_lines(self, euler_parts):
        spec, section, _ = euler_parts
        b = QZ.series([(2, 1), (9, 3)])
        result = hs.solve(spec, section, b)
        assert hs.trace_entries(result, hs.INTEGERS) == [
            {"iter": 1, "residual_value": "3", "term": "2*t^1"},
            {"iter": 2, "residual_value": "inf", "term": "3*t^3"},
        ]
        # residual values are written in the group's own format
        step = hs.TraceStep(1, OV((1, 2)), "t^(0,1)")
        lex = hs.SolveResult(None, OV((1, 2)), 1, False, (step,))
        assert hs.trace_entries(lex, hs.LEX2) == [
            {"iter": 1, "residual_value": "(1,2)", "term": "t^(0,1)"}
        ]


class TestHypothesisChecks:
    def test_honest_instance_passes_all(self, euler_parts):
        spec, section, _ = euler_parts
        sections = [QZ.monomial(1, 2), QZ.monomial(3, -1), QZ.series([(1, 1), (2, 4)])]
        targets = sections + [QZ.series([(Fraction(1, 2), -3)])]
        pairs = [(QZ.monomial(2, 5), QZ.monomial(1, 2)), (QZ.monomial(1, 1), QZ.monomial(4, 1))]
        assert hs.check_value_map_order(spec, sections).ok
        assert hs.check_value_monotonicity(spec, pairs).ok
        report = hs.check_section_progress(spec, section, targets)
        assert report.ok
        assert report.checked == len(targets)

    def test_order_check_flags_ill_defined_map(self):
        # collapse every element to its leading monomial with exponent doubled,
        # so equal domain values can land on any image value
        def apply(s):
            c, g = s.leading_term()
            return QZ.monomial(1, 2 * g if c != 2 else 3 * g)

        spec = hs.HomomorphismSpec(QZ, QZ, apply)
        samples = [QZ.monomial(1, 2), QZ.monomial(2, 2)]
        report = hs.check_value_map_order(spec, samples)
        assert not report.ok
        assert "not well defined" in report.violations[0]

    def test_order_check_flags_order_reversal(self):
        spec = hs.HomomorphismSpec(
            QZ, QZ, lambda s: QZ.monomial(1, -s.leading_term().exponent)
        )
        report = hs.check_value_map_order(spec, [QZ.monomial(1, 1), QZ.monomial(1, 2)])
        assert not report.ok
        assert "order not strictly preserved" in report.violations[0]

    def test_monotonicity_check_skips_vacuous_pairs(self, euler_parts):
        spec, _, _ = euler_parts
        # v(a) < v(s): antecedent fails, so the pair cannot be a violation
        report = hs.check_value_monotonicity(
            spec, [(QZ.monomial(1, 1), QZ.monomial(1, 5))]
        )
        assert report.ok
        assert report.checked == 1

    def test_progress_check_flags_stuck_section(self, euler_parts):
        spec, _, _ = euler_parts

        def stuck(b):
            raise hs.SectionFailure("cannot improve this target")

        report = hs.check_section_progress(
            spec, hs.AsymptoticSection(stuck, lambda s: True), [QZ.monomial(1, 2)]
        )
        assert not report.ok
        assert "section stuck" in report.violations[0]

    def test_progress_check_flags_weak_correction(self, euler_parts):
        spec, _, _ = euler_parts
        # correcting with half the needed coefficient keeps the leading term
        weak = hs.AsymptoticSection(
            section=lambda b: QZ.monomial(
                hs.QQ.div(b.leading_term().coefficient, 2 * b.leading_term().exponent),
                b.leading_term().exponent,
            ),
            contains=lambda s: True,
        )
        report = hs.check_section_progress(spec, weak, [QZ.monomial(1, 2)])
        assert not report.ok
        assert "no strict improvement" in report.violations[0]

    def test_injectivity_flags_constant_kernel(self, euler_parts):
        spec, _, _ = euler_parts
        # the scaling map kills exponent zero, so distinct constants collide
        report = hs.verify_section_injectivity(
            spec, [(QZ.monomial(1, 0), QZ.monomial(2, 0)), (QZ.monomial(1, 1), QZ.monomial(1, 2))]
        )
        assert not report.ok
        assert report.violations == ("distinct section elements with equal images",)

    def test_verify_value_map_accepts_honest_map(self, euler_parts):
        spec, _, vmap = euler_parts
        samples = [QZ.monomial(1, g) for g in (-3, 1, 2, 7)]
        assert hs.verify_value_map(vmap, spec, samples).ok

    def test_verify_value_map_rejects_identity_on_shifting_instance(self, ddt_parts):
        spec, _, _ = ddt_parts
        report = hs.verify_value_map(
            hs.identity_value_map(), spec, [QZ.monomial(1, 2), QZ.monomial(1, 5)]
        )
        assert not report.ok
        assert all("forward(" in v for v in report.violations)

    @pytest.mark.parametrize("exponents", [(1, 2), (2, 1)])
    def test_verify_value_map_flags_reversal_in_either_sample_order(self, exponents):
        # t^g -> t^-g reverses the order; the claimed map agrees with it, so
        # only the pairwise monotonicity audit can catch it
        spec = hs.HomomorphismSpec(
            QZ, QZ, lambda s: QZ.monomial(1, -s.leading_term().exponent)
        )
        negate = lambda v: OV(-v.finite)
        vmap = hs.ValueMap(forward=negate, inverse=negate, domain_contains=lambda v: True)
        samples = [QZ.monomial(1, g) for g in exponents]
        report = hs.verify_value_map(vmap, spec, samples)
        assert report.checked == 3
        assert len(report.violations) == 1
        assert "order not strictly preserved" in report.violations[0]


def _all_pairs_audit(observed):
    """Reference audit: every pair of (value, image), ascending by value."""
    violations = []
    for k, (v1, w1) in enumerate(observed):
        for v2, w2 in observed[k + 1 :]:
            lo, hi = ((v1, w1), (v2, w2)) if not v2 < v1 else ((v2, w2), (v1, w1))
            if lo[0] == hi[0] and lo[1] != hi[1]:
                violations.append(
                    f"not well defined: value {lo[0]!r} maps to both {lo[1]!r} and {hi[1]!r}"
                )
            elif lo[0] < hi[0] and not lo[1] < hi[1]:
                violations.append(
                    f"order not strictly preserved: {lo[0]!r}<{hi[0]!r} but {lo[1]!r}>={hi[1]!r}"
                )
    return len(observed) * (len(observed) - 1) // 2, violations


@st.composite
def value_observations(draw):
    """(value, image) pairs with tied values and top images.  The images are
    arbitrary, or follow an order-preserving map with a few entries
    overwritten, so that both verdicts are common."""
    values = draw(st.lists(st.integers(-3, 3), max_size=12))
    image = st.one_of(st.none(), st.integers(-7, 7))
    if draw(st.booleans()):
        images = draw(st.lists(image, min_size=len(values), max_size=len(values)))
    else:
        images = [2 * v + 1 if v < 3 else None for v in values]
        for k in draw(st.lists(st.integers(0, max(len(values) - 1, 0)), max_size=3)):
            if values:
                images[k] = draw(image)
    return [(OV(v), INF if w is None else OV(w)) for v, w in zip(values, images)]


class TestPairAudit:
    @given(value_observations())
    def test_matches_the_all_pairs_reference(self, observed):
        # each sample's coefficient keys its image, so tied values may differ
        samples = [QZ.monomial(k + 1, v.finite) for k, (v, _) in enumerate(observed)]
        images = {Fraction(k + 1): w for k, (_, w) in enumerate(observed)}

        def apply(s):
            w = images[s.leading_term().coefficient]
            return QZ.zero if w.is_infinite else QZ.monomial(1, w.finite)

        report = hs.check_value_map_order(hs.HomomorphismSpec(QZ, QZ, apply), samples)
        assert (report.checked, list(report.violations)) == _all_pairs_audit(observed)


class TestBallTransport:
    def test_image_ball_moves_radius_through_value_map(self, ddt_parts):
        spec, _, vmap = ddt_parts
        ball = hs.image_ball(spec, vmap, QZ.monomial(1, 3), OV(5))
        assert ball.center == QZ.monomial(3, 2)
        assert ball.radius == OV(4)

    def test_image_ball_infinite_radius_is_singleton(self, ddt_parts):
        spec, _, vmap = ddt_parts
        ball = hs.image_ball(spec, vmap, QZ.monomial(1, 3), INF)
        assert ball.radius == INF

    def test_image_ball_rejects_unachieved_radius(self, euler_parts):
        spec, _, vmap = euler_parts
        with pytest.raises(hs.UnmappedValue):
            hs.image_ball(spec, vmap, QZ.monomial(1, 3), OV(0))

    def test_pull_nest_produces_witness(self, euler_parts):
        spec, section, vmap = euler_parts
        targets = [
            hs.Ball(QZ, QZ.zero, OV(1)),
            hs.Ball(QZ, QZ.monomial(2, 2), OV(3)),
        ]
        domain_nest, witness = hs.pull_nest(spec, section, vmap, targets)
        assert witness == QZ.monomial(1, 2)
        for ball in domain_nest:
            assert ball.contains(witness)
        for ball in targets:
            assert ball.contains(spec.apply(witness))

    def test_pull_nest_reads_the_bound_of_truncated_targets(self, euler_parts):
        # (t^1 + O(5)) - (t^1 + O(6)) = O(5): the targets nest by its bound
        spec, section, vmap = euler_parts
        targets = [
            hs.Ball(QZ, QZ.series([(1, 1)], OV(5)), OV(2)),
            hs.Ball(QZ, QZ.series([(1, 1)], OV(6)), OV(4)),
        ]
        domain_nest, witness = hs.pull_nest(spec, section, vmap, targets, precision=OV(5))
        assert witness == QZ.monomial(1, 1)
        assert [b.radius for b in domain_nest] == [OV(2), OV(4)]

    def test_pull_nest_radii_go_through_inverse(self, ddt_parts):
        spec, section, vmap = ddt_parts
        (pulled,), _ = hs.pull_nest(
            spec, section, vmap, [hs.Ball(QZ, QZ.monomial(3, 2), OV(4))]
        )
        assert pulled.radius == OV(5)
        assert pulled.center == QZ.monomial(1, 3)

    def test_pull_nest_rejects_non_nested_targets(self, euler_parts):
        spec, section, vmap = euler_parts
        disjoint = [
            hs.Ball(QZ, QZ.monomial(1, 1), OV(3)),
            hs.Ball(QZ, QZ.monomial(5, 1), OV(3)),
        ]
        with pytest.raises(hs.InvalidNest):
            hs.pull_nest(spec, section, vmap, disjoint)

    def test_pull_nest_rejects_infinite_radius(self, euler_parts):
        spec, section, vmap = euler_parts
        with pytest.raises(ValueError):
            hs.pull_nest(spec, section, vmap, [hs.Ball(QZ, QZ.zero, INF)])
