"""Term-wise derivations, formal integration, obstructions, sample checks."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hahnsolve as hs
from hahnsolve import differential

from .conftest import QZ, F5Z, coefficients, exact_series, exponents

OV = hs.OrderedValue
INF = hs.INFINITY

EULER = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.euler(hs.QQ, hs.INTEGERS))
DDT = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, hs.ddt(hs.QQ, hs.INTEGERS))
F5 = hs.PrimeField(5)
DDT5 = hs.DifferentialFieldSpec(F5, hs.INTEGERS, hs.ddt(F5, hs.INTEGERS))


class TestDerive:
    def test_ddt_monomial(self):
        assert hs.derive(DDT.derivation, QZ.monomial(1, 3)) == QZ.monomial(3, 2)

    def test_euler_keeps_exponents(self):
        s = QZ.series([(3, -2), (1, 5)])
        assert hs.derive(EULER.derivation, s) == QZ.series([(-6, -2), (5, 5)])

    def test_constants_die(self):
        c = QZ.monomial(5, 0)
        assert hs.derive(DDT.derivation, c) == QZ.zero
        assert hs.derive(EULER.derivation, c) == QZ.zero
        assert hs.derive(DDT.derivation, QZ.zero) == QZ.zero

    def test_ddt_shifts_the_precision_bound(self):
        s = QZ.series([(1, 2)], OV(5))
        assert hs.derive(DDT.derivation, s) == QZ.series([(2, 1)], OV(4))

    def test_euler_keeps_the_precision_bound(self):
        s = QZ.series([(1, 2)], OV(5))
        assert hs.derive(EULER.derivation, s) == QZ.series([(2, 2)], OV(5))

    def test_rational_exponents(self):
        space = hs.SeriesSpace(hs.QQ, hs.RATIONALS)
        s = space.monomial(2, Fraction(1, 2))
        d = hs.euler(hs.QQ, hs.RATIONALS)
        assert hs.derive(d, s) == space.monomial(1, Fraction(1, 2))

    def test_exponent_group_must_embed_in_the_field(self):
        with pytest.raises(ValueError):
            hs.ddt(hs.QQ, hs.LEX2)

    @given(exact_series(max_terms=5), exact_series(max_terms=5))
    def test_additive(self, a, b):
        d = DDT.derivation
        assert hs.derive(d, a.add(b)) == hs.derive(d, a).add(hs.derive(d, b))


class TestPowerRuleClosedForm:
    """``derive`` under ddt and euler against ``c t^g -> (c g) t^(g - step)``
    worked out here, term by term, with no series arithmetic."""

    @staticmethod
    def _draw(rng, group, below):
        """Up to 8 terms ``{exponent: coefficient}`` below ``below``; ``rat``
        denominators come from 1-4, as the samplers draw them."""
        terms = {}
        for _ in range(rng.randint(0, 8)):
            g = rng.randint(-12, 12)
            if group == hs.RATIONALS:
                g = Fraction(g, rng.randint(1, 4))
            if g < below:
                terms[g] = rng.randint(1, 6)
        return terms

    @staticmethod
    def _times(field, c, g):
        if field == hs.QQ:
            return Fraction(c) * g
        g = Fraction(g)
        return c * g.numerator * pow(g.denominator, -1, 7) % 7

    @pytest.mark.parametrize("field", [hs.QQ, hs.PrimeField(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("group", [hs.INTEGERS, hs.RATIONALS], ids=["int", "rat"])
    @pytest.mark.parametrize("name, step", [("ddt", 1), ("euler", 0)])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "truncated"])
    def test_matches_closed_form(self, field, group, name, step, exact):
        rng = random.Random(f"{field.name}/{group.name}/{name}/{exact}")
        derivation = hs.parse_derivation(field, group, name)
        space = hs.SeriesSpace(field, group)
        for _ in range(100):
            cut = None if exact else group.parse(str(rng.randint(-8, 10)))
            terms = self._draw(rng, group, 13 if exact else cut)
            s = space.series([(c, g) for g, c in terms.items()], INF if exact else OV(cut))
            image = hs.derive(derivation, s)
            expected = [
                (self._times(field, c, g), g - step)
                for g, c in sorted(terms.items())
                if self._times(field, c, g) != 0
            ]
            assert list(image.terms) == expected
            assert image.truncation == (INF if exact else OV(cut - step))


def _normalised_image(derivation, s):
    """``derive``'s answer rebuilt through ``make_series`` from the same
    products and the same mapped bound."""
    products = [(s.field.mul(c, derivation.scale(g)), derivation.shift(g)) for c, g in s.terms]
    cut = INF if s.is_exact else derivation.map_truncation(s.truncation)
    return hs.make_series(s.field, s.group, products, cut)


class TestInOrderDeriveMatchesNormaliser:
    """Under an increasing shift ``derive`` builds its image in input order;
    the normaliser must agree term for term and on the truncation."""

    @staticmethod
    def _series(rng, space, exact):
        # exponents in [-12, 12] include multiples of 3 and 7, where the
        # power rule vanishes over GF(3) and GF(7); rat denominators avoid both
        def exponent(n):
            return n if space.group == hs.INTEGERS else Fraction(n, rng.choice((1, 2, 4)))

        n = rng.randint(0, 8)
        pairs = [(rng.randint(1, 6), exponent(rng.randint(-12, 12))) for _ in range(n)]
        return space.series(pairs, INF if exact else OV(exponent(rng.randint(-8, 10))))

    @pytest.mark.parametrize(
        "field", [hs.QQ, hs.PrimeField(3), hs.PrimeField(7)], ids=["QQ", "GF3", "GF7"]
    )
    @pytest.mark.parametrize("group", [hs.INTEGERS, hs.RATIONALS], ids=["int", "rat"])
    @pytest.mark.parametrize("name", ["ddt", "euler"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "truncated"])
    def test_power_rule(self, field, group, name, exact):
        rng = random.Random(f"{field.name}/{group.name}/{name}/{exact}")
        derivation = hs.parse_derivation(field, group, name)
        assert derivation.increasing
        space = hs.SeriesSpace(field, group)
        vanished = 0
        for _ in range(100):
            s = self._series(rng, space, exact)
            image = hs.derive(derivation, s)
            expected = _normalised_image(derivation, s)
            assert image.terms == expected.terms
            assert image.truncation == expected.truncation
            vanished += len(s.terms) - len(image.terms)
        assert vanished > 0  # every variant meets exponents where d vanishes

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables(self, seed):
        # three in four tables are increasing; the rest check the flag's "no"
        rng = random.Random(seed)
        field = rng.choice((hs.QQ, hs.PrimeField(3), hs.PrimeField(7)))
        live = sorted(rng.sample(range(-8, 9), rng.randint(0, 6)))
        images = sorted(rng.sample(range(-12, 13), len(live)))
        if seed % 4 == 3:
            rng.shuffle(images)  # some tables are not increasing
        scale = {g: rng.randint(1, 5) for g in live}
        shift = dict(zip(live, images))
        for g in rng.sample(range(-8, 9), 3):  # dead entries shift anywhere
            if g not in scale:
                scale[g], shift[g] = 0, rng.randint(-12, 12)
        scale = {g: field.coerce(c) for g, c in scale.items()}
        d = hs.from_tables(field, hs.INTEGERS, scale, shift)
        live_images = [shift[g] for g in sorted(scale) if not field.is_zero(scale[g])]
        assert d.increasing == (live_images == sorted(live_images))
        space = hs.SeriesSpace(field, hs.INTEGERS)
        for exact in (True, False):
            for _ in range(20):
                s = self._series(rng, space, exact)
                image = hs.derive(d, s)
                expected = _normalised_image(d, s)
                assert image.terms == expected.terms
                assert image.truncation == expected.truncation

    def test_order_reversing_table_takes_the_normaliser(self, monkeypatch):
        d = hs.parse_derivation(hs.QQ, hs.INTEGERS, "d:1=1,2=1;sigma:1=5,2=3")
        assert not d.increasing
        calls = []
        normalise = differential.make_series
        monkeypatch.setattr(
            differential, "make_series", lambda *args: calls.append(args) or normalise(*args)
        )
        b = QZ.series([(1, 3), (1, 5)])
        assert hs.derive(d, QZ.series([(1, 1), (1, 2)])) == b
        assert len(calls) == 1
        result = hs.integrate(hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, d), b)
        assert result.solution == QZ.series([(1, 1), (1, 2)])


class TestFromTables:
    def test_table_action_and_off_table_kill(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {2: Fraction(1), 3: Fraction(3)}, {2: 5})
        s = QZ.series([(1, 2), (1, 3), (4, 7)])
        assert hs.derive(d, s) == QZ.series([(1, 5), (3, 3)])

    def test_ambiguous_shift_rejected(self):
        with pytest.raises(hs.AmbiguousShift) as excinfo:
            hs.from_tables(hs.QQ, hs.INTEGERS, {2: Fraction(1), 3: Fraction(1)}, {2: 5, 3: 5})
        assert excinfo.value.exponent == 5

    def test_dead_exponents_cannot_collide(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {2: Fraction(0), 3: Fraction(1)}, {2: 5, 3: 5})
        assert d.shift_inverse(5) == 3

    def test_truncation_bound_tracks_live_images(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {2: Fraction(1)}, {2: 0})
        s = QZ.series([(5, 0)], OV(1))
        # the only live exponent above the cut maps to 0
        assert hs.derive(d, s) == QZ.series([], OV(0))

    def test_blur_vanishes_when_no_live_exponent_remains(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {2: Fraction(1)}, {2: 0})
        s = QZ.series([(5, 0)], OV(3))
        result = hs.derive(d, s)
        assert result.is_exact
        assert result == QZ.zero


class TestSpec:
    def test_constants_must_be_constant(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {0: Fraction(1)})
        with pytest.raises(ValueError):
            hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, d)

    def test_space_bundles_field_and_group(self):
        assert EULER.space == QZ
        assert DDT5.space == F5Z

    @pytest.mark.parametrize(
        "field, group, built_over, message",
        [
            (F5, hs.INTEGERS, (hs.QQ, hs.INTEGERS), "rationals with int exponents, not gf(5)"),
            (hs.QQ, hs.INTEGERS, (hs.QQ, hs.RATIONALS), "rat exponents, not rationals with int"),
        ],
        ids=["GF5-vs-QQ", "int-vs-rat"],
    )
    @pytest.mark.parametrize("build", [hs.ddt, hs.euler, lambda f, g: hs.from_tables(f, g, {})])
    def test_a_derivation_built_over_another_field_or_group_is_refused(
        self, field, group, built_over, message, build
    ):
        # over GF(5) a QQ derivation hands back Fraction coefficients
        with pytest.raises(hs.ParseError, match=re.escape(message)):
            hs.DifferentialFieldSpec(field, group, build(*built_over))

    def test_a_derivation_records_what_it_was_built_for(self):
        for d in (hs.ddt(F5, hs.RATIONALS), hs.from_tables(F5, hs.RATIONALS, {1: 1})):
            assert (d.field, d.group) == (F5, hs.RATIONALS)
            hs.DifferentialFieldSpec(F5, hs.RATIONALS, d)


class TestSection:
    def test_euler_inverts_the_leading_term(self):
        b = QZ.series([(4, 3), (7, 9)])
        assert hs.asymptotic_section(EULER, b) == QZ.series([(Fraction(4, 3), 3)])

    def test_ddt_raises_the_exponent(self):
        assert hs.asymptotic_section(DDT, QZ.monomial(4, 3)) == QZ.monomial(1, 4)

    def test_ddt_obstruction_at_minus_one(self):
        with pytest.raises(hs.Obstruction) as excinfo:
            hs.asymptotic_section(DDT, QZ.monomial(1, -1))
        assert excinfo.value.exponent == -1

    def test_euler_obstruction_at_zero(self):
        with pytest.raises(hs.Obstruction) as excinfo:
            hs.asymptotic_section(EULER, QZ.series([(2, 0), (1, 1)]))
        assert excinfo.value.exponent == 0

    def test_prime_field_obstruction_at_char_minus_one(self):
        # over GF(5) the preimage exponent 5 scales by 5 = 0
        with pytest.raises(hs.Obstruction) as excinfo:
            hs.asymptotic_section(DDT5, F5Z.monomial(1, 4))
        assert excinfo.value.exponent == 4

    @pytest.mark.parametrize("p, preimage", [(2, None), (3, None), (5, Fraction(4, 3))])
    def test_a_preimage_whose_scale_has_no_image_is_refused(self, p, preimage):
        # ddt's preimage of 1/3 is 4/3: zero in GF(2), no image in GF(3);
        # either way the refusal names the exponent of the target
        field = hs.PrimeField(p)
        dspec = hs.DifferentialFieldSpec(field, hs.RATIONALS, hs.ddt(field, hs.RATIONALS))
        assert dspec.derivation.shift_inverse(Fraction(1, 3)) == preimage
        b = dspec.space.monomial(1, Fraction(1, 3))
        if preimage is None:
            with pytest.raises(hs.Obstruction) as excinfo:
                hs.integrate(dspec, b)
            assert excinfo.value.exponent == Fraction(1, 3)
        else:
            assert hs.integrate(dspec, b).solution == dspec.space.monomial(2, preimage)


class TestIntegrate:
    def test_euler_two_terms(self):
        b = QZ.series([(3, -2), (1, 5)])
        result = hs.integrate(EULER, b)
        assert result.exact
        assert result.solution == QZ.series([(Fraction(-3, 2), -2), (Fraction(1, 5), 5)])
        assert hs.derive(EULER.derivation, result.solution) == b

    def test_ddt_two_terms(self):
        b = QZ.series([(3, 2), (1, 5)])
        result = hs.integrate(DDT, b)
        assert result.solution == QZ.series([(1, 3), (Fraction(1, 6), 6)])

    def test_solution_avoids_constant_term(self):
        result = hs.integrate(DDT, QZ.monomial(1, 0))
        assert result.solution == QZ.monomial(1, 1)
        assert 0 not in result.solution.support

    def test_prime_field_integration(self):
        result = hs.integrate(DDT5, F5Z.monomial(1, 1))
        assert result.solution == F5Z.monomial(3, 2)
        assert hs.derive(DDT5.derivation, result.solution) == F5Z.monomial(1, 1)

    def test_solution_subset_avoids_the_kernel_over_gf3(self):
        # over GF(3) ddt kills t^3, so a series carrying t^3 is outside the subset
        f3 = hs.PrimeField(3)
        dspec = hs.DifferentialFieldSpec(f3, hs.INTEGERS, hs.ddt(f3, hs.INTEGERS))
        space = dspec.space
        _spec, section, value_map = hs.integration_instance(dspec)
        t3 = space.monomial(1, 3)
        assert hs.derive(dspec.derivation, t3) == space.zero
        assert not section.contains(t3)
        assert not section.contains(space.series([(1, 3), (1, 4)]))
        assert not section.contains(space.monomial(1, 0))
        assert section.contains(space.monomial(1, 4))
        assert not value_map.domain_contains(OV(3))
        solution = hs.integrate(dspec, t3).solution
        assert solution == space.monomial(1, 4)
        assert section.contains(solution)

    def test_prime_field_obstruction_via_integrate(self):
        with pytest.raises(hs.Obstruction) as excinfo:
            hs.integrate(DDT5, F5Z.monomial(1, 4))
        assert excinfo.value.exponent == 4

    def test_matches_termwise_oracle(self):
        b = QZ.series([(Fraction(5, 3), -4), (2, 1), (7, 6)])
        assert hs.integrate(EULER, b).solution == hs.termwise_integral_oracle(EULER, b)
        assert hs.integrate(DDT, b).solution == hs.termwise_integral_oracle(DDT, b)

    def test_oracle_needs_exact_input(self):
        with pytest.raises(ValueError):
            hs.termwise_integral_oracle(EULER, QZ.series([(1, 1)], OV(5)))

    def test_oracle_reports_obstructions(self):
        with pytest.raises(hs.Obstruction):
            hs.termwise_integral_oracle(DDT, QZ.series([(1, -1), (1, 2)]))

    def test_correction_cost_is_linear_in_the_term_count(self, monkeypatch):
        # Each correction cancels one leading term; the rest of the residual
        # must be carried over, not re-normalised.  Zero tests count that
        # work without timing it: re-normalising every step costs about n^2.
        n = 400
        b = QZ.series([(Fraction(k % 7 + 1, k % 5 + 1), k) for k in range(n)])
        is_zero = hs.CoefficientField.is_zero
        calls = 0

        def counting(field, a):
            nonlocal calls
            calls += 1
            return is_zero(field, a)

        monkeypatch.setattr(hs.CoefficientField, "is_zero", counting)
        result = hs.integrate(DDT, b)
        assert result.iterations == n
        assert calls <= 20 * n
        assert result.solution == hs.termwise_integral_oracle(DDT, b)

    @given(
        st.lists(
            st.tuples(coefficients(), st.integers(-8, 8).filter(lambda g: g != 0)),
            max_size=6,
        )
    )
    def test_euler_solve_equals_oracle(self, pairs):
        b = QZ.series(pairs)
        result = hs.integrate(EULER, b)
        assert result.exact
        assert result.solution == hs.termwise_integral_oracle(EULER, b)

    @given(st.data())
    def test_each_step_cancels_the_residuals_leading_term(self, data):
        field = data.draw(st.sampled_from([hs.QQ, *map(hs.PrimeField, (2, 3, 7))]))
        group = data.draw(st.sampled_from([hs.INTEGERS, hs.RATIONALS]))
        name = data.draw(st.sampled_from(["ddt", "euler"]))
        dspec = hs.DifferentialFieldSpec(field, group, hs.parse_derivation(field, group, name))
        coefficient = coefficients() if field == hs.QQ else st.integers(1, field.p - 1)
        pairs = data.draw(
            st.lists(st.tuples(coefficient, exponents(-8, 8, group)), min_size=1, max_size=8)
        )
        solvable = lambda g: dspec.derivation.shift_inverse(g) is not None
        b = dspec.space.series([(c, g) for c, g in pairs if solvable(g)])
        result = hs.integrate(dspec, b)
        values = [step.residual_value for step in result.trace]
        assert values == ([OV(g) for g in b.support[1:]] + [INF] if b.terms else [])
        oracle = hs.termwise_integral_oracle(dspec, b)
        assert [step.term.terms for step in result.trace] == [(t,) for t in oracle.terms]
        assert all(step.term.is_exact for step in result.trace)


class TestCompatibilityChecks:
    def test_honest_euler_valuation_margin(self):
        pairs = [
            (QZ.monomial(1, 2), QZ.monomial(1, 1)),
            (QZ.series([(1, 0), (1, 3)]), QZ.series([(2, 1), (1, 4)])),
            (QZ.monomial(5, 0), QZ.monomial(1, 2)),
        ]
        report = hs.check_differential_valuation(EULER, pairs)
        assert report.ok
        assert report.checked == 3
        assert report.skipped == 1  # the pure constant has zero derivative

    def test_low_swinging_derivative_is_flagged(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {9: Fraction(1), 3: Fraction(3)}, {9: -5})
        dspec = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, d)
        report = hs.check_differential_valuation(
            dspec, [(QZ.monomial(1, 9), QZ.monomial(1, 3))]
        )
        assert not report.ok
        assert "not positive" in report.violations[0]

    def test_vanishing_comparison_derivative_is_flagged(self):
        report = hs.check_differential_valuation(
            EULER, [(QZ.monomial(1, 2), QZ.monomial(3, 0))]
        )
        assert not report.ok
        assert "vanishes" in report.violations[0]

    def test_honest_monotonicity(self):
        pairs = [
            (QZ.monomial(1, 1), QZ.monomial(1, 2)),
            (QZ.monomial(1, -3), QZ.series([(2, -3), (1, 1)])),
            (QZ.monomial(2, 4), QZ.monomial(1, 4)),
        ]
        assert hs.check_derivative_monotonicity(EULER, pairs).ok
        assert hs.check_derivative_monotonicity(DDT, pairs).ok

    def test_order_reversing_shift_is_flagged(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {1: Fraction(1), 2: Fraction(1)}, {1: 5, 2: 3})
        dspec = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, d)
        report = hs.check_derivative_monotonicity(
            dspec, [(QZ.monomial(1, 1), QZ.monomial(1, 2))]
        )
        assert not report.ok

    def test_builtins_satisfy_leibniz(self):
        pairs = [
            (QZ.series([(1, 0), (1, 1)]), QZ.series([(1, 0), (-1, 1)])),
            (QZ.monomial(3, -2), QZ.series([(1, 2), (2, 5)])),
        ]
        assert hs.check_leibniz(EULER, pairs).ok
        assert hs.check_leibniz(DDT, pairs).ok

    def test_table_derivation_can_break_leibniz(self):
        d = hs.from_tables(hs.QQ, hs.INTEGERS, {1: Fraction(1)})
        dspec = hs.DifferentialFieldSpec(hs.QQ, hs.INTEGERS, d)
        report = hs.check_leibniz(dspec, [(QZ.monomial(1, 1), QZ.monomial(1, 1))])
        assert not report.ok

    @given(exact_series(max_terms=4), exact_series(max_terms=4))
    def test_leibniz_property_for_ddt(self, a, b):
        assert hs.check_leibniz(DDT, [(a, b)]).ok


class TestParseDerivation:
    def test_builtin_names(self):
        assert hs.parse_derivation(hs.QQ, hs.INTEGERS, "ddt").name == "ddt"
        assert hs.parse_derivation(hs.QQ, hs.INTEGERS, "euler").name == "euler"

    def test_custom_tables(self):
        d = hs.parse_derivation(hs.QQ, hs.INTEGERS, "d:2=1,3=3;sigma:2=5")
        assert hs.derive(d, QZ.series([(1, 2), (1, 3)])) == QZ.series([(1, 5), (3, 3)])
        assert d.name == "custom"

    def test_custom_tables_reject_ambiguity(self):
        with pytest.raises(hs.AmbiguousShift):
            hs.parse_derivation(hs.QQ, hs.INTEGERS, "d:2=1,3=1;sigma:2=5,3=5")

    def test_ambiguity_is_a_parse_error(self):
        assert issubclass(hs.AmbiguousShift, hs.ParseError)

    @pytest.mark.parametrize(
        "selector, table",
        [("d:1=1,1=2", "d:"), ("d:1=1;sigma:1=2,1=3", "sigma:"), ("d:1=1;d:1=1", "d:")],
    )
    def test_repeated_exponent_refused(self, selector, table):
        with pytest.raises(hs.ParseError, match=f"^repeated exponent 1 in {table} table$"):
            hs.parse_derivation(hs.QQ, hs.INTEGERS, selector)

    @pytest.mark.parametrize("bad", ["newton", "sigma:2=5", "d:2=1;junk:3"])
    def test_bad_selectors(self, bad):
        with pytest.raises(hs.ParseError):
            hs.parse_derivation(hs.QQ, hs.INTEGERS, bad)
