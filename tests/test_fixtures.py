"""Check fixtures: the instance table, report order, canaries, and pinned
counts and violation texts."""

import random
from fractions import Fraction

import pytest

import hahnsolve as hs

NAMES = ["euler", "ddt", "broken-order", "broken-monotone", "broken-progress"]

# (name, checked, skipped, violations) of every report at seed 4242, 60 samples:
# the honest instances run seven checks and the broken ones three, in this order
PINNED_4242 = {
    "euler": [
        ("value_map_order", 1770, 0, 0),
        ("value_monotonicity", 60, 0, 0),
        ("section_progress", 60, 0, 0),
        ("value_map_roundtrip", 1830, 0, 0),
        ("section_injectivity", 30, 0, 0),
        ("differential_valuation", 60, 10, 0),
        ("derivative_monotonicity", 60, 0, 0),
    ],
    "ddt": [
        ("value_map_order", 1770, 0, 0),
        ("value_monotonicity", 60, 0, 0),
        ("section_progress", 60, 0, 0),
        ("value_map_roundtrip", 1830, 0, 0),
        ("section_injectivity", 30, 0, 0),
        ("differential_valuation", 60, 11, 0),
        ("derivative_monotonicity", 60, 0, 0),
    ],
    "broken-order": [
        ("value_map_order", 1770, 0, 4),
        ("value_monotonicity", 60, 0, 0),
        ("section_progress", 60, 0, 0),
    ],
    "broken-monotone": [
        ("value_map_order", 1770, 0, 0),
        ("value_monotonicity", 60, 0, 1),
        ("section_progress", 60, 0, 0),
    ],
    "broken-progress": [
        ("value_map_order", 1770, 0, 0),
        ("value_monotonicity", 60, 0, 0),
        ("section_progress", 60, 0, 60),
    ],
}

OV = "OrderedValue"

# the one failing report of each broken instance at seed 4242, 60 samples,
# and its first violation
FIRST_VIOLATION_4242 = {
    "broken-order": (
        "value_map_order",
        f"order not strictly preserved: {OV}(2)<{OV}(3) but {OV}(3)>={OV}(3)",
    ),
    "broken-monotone": (
        "value_monotonicity",
        f"v(a)={OV}(0)>=v(s)={OV}(-1) but w(f(a))={OV}(-10)<w(f(s))={OV}(-1)",
    ),
    "broken-progress": (
        "section_progress",
        f"no strict improvement: w(b)={OV}(9), w(b-f(s))={OV}(9)",
    ),
}


def _no_progress(*values):
    return tuple(f"no strict improvement: w(b)={OV}({v}), w(b-f(s))={OV}({v})" for v in values)


_HONEST_7 = [
    ("value_map_order", 15, 0, ()),
    ("value_monotonicity", 6, 0, ()),
    ("section_progress", 6, 0, ()),
    ("value_map_roundtrip", 21, 0, ()),
    ("section_injectivity", 3, 0, ()),
    ("differential_valuation", 6, 1, ()),
    ("derivative_monotonicity", 6, 0, ()),
]

# (name, checked, skipped, violation texts) of every report at seed 7, 6 samples
PINNED_7 = {
    "euler": _HONEST_7,
    "ddt": _HONEST_7,
    "broken-order": [
        ("value_map_order", 15, 0, (FIRST_VIOLATION_4242["broken-order"][1],) * 2),
        ("value_monotonicity", 6, 0, ()),
        ("section_progress", 6, 0, ()),
    ],
    "broken-monotone": [
        ("value_map_order", 15, 0, ()),
        ("value_monotonicity", 6, 0, (FIRST_VIOLATION_4242["broken-monotone"][1],)),
        ("section_progress", 6, 0, ()),
    ],
    "broken-progress": [
        ("value_map_order", 15, 0, ()),
        ("value_monotonicity", 6, 0, ()),
        ("section_progress", 6, 0, _no_progress(-10, -8, -6, 1, -10, -4)),
    ],
}


def test_instance_names_in_order():
    assert hs.instance_names() == NAMES


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_broken_order_sections_start_with_canaries(n):
    space = hs.SeriesSpace(hs.QQ, hs.INTEGERS)
    sections = hs.build_instance("broken-order").sample_sections(random.Random(5), n)
    canaries = [space.monomial(1, 2), space.monomial(1, 3)]
    assert len(sections) == n
    assert sections[: min(n, 2)] == canaries[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_broken_monotone_pairs_start_with_canary(n):
    space = hs.SeriesSpace(hs.QQ, hs.INTEGERS)
    pairs = hs.build_instance("broken-monotone").sample_pairs(random.Random(5), n)
    assert len(pairs) == n
    if n:
        assert pairs[0] == (space.monomial(5, 0), space.monomial(1, -1))


@pytest.mark.parametrize("name", NAMES)
def test_reports_in_order_pinned_at_seed_4242(name):
    reports = hs.run_instance_checks(hs.build_instance(name), seed=4242, samples=60)
    got = [(r.name, r.checked, r.skipped, len(r.violations)) for r in reports]
    assert got == PINNED_4242[name]


@pytest.mark.parametrize("name", NAMES[2:])
def test_first_violation_pinned_at_seed_4242(name):
    reports = hs.run_instance_checks(hs.build_instance(name), seed=4242, samples=60)
    failing = [(r.name, r.violations[0]) for r in reports if r.violations]
    assert failing == [FIRST_VIOLATION_4242[name]]


@pytest.mark.parametrize("name", NAMES)
def test_reports_pinned_in_full_at_seed_7(name):
    reports = hs.run_instance_checks(hs.build_instance(name), seed=7, samples=6)
    got = [(r.name, r.checked, r.skipped, r.violations) for r in reports]
    assert got == PINNED_7[name]


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_fewer_than_two_samples_are_refused(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        hs.run_instance_checks(hs.build_instance("broken-order"), seed=0, samples=samples)


@pytest.mark.parametrize("name", NAMES[2:])
def test_two_samples_catch_each_broken_instance(name):
    reports = hs.run_instance_checks(hs.build_instance(name), seed=0, samples=2)
    assert not all(r.ok for r in reports)


def test_broken_order_takes_the_euler_subset():
    space = hs.SeriesSpace(hs.QQ, hs.INTEGERS)
    series = [
        space.zero,
        space.monomial(1, 0),
        space.monomial(3, 2),
        space.series([(1, -2), (5, 0), (1, 3)]),
        space.series([(1, -1), (2, 4)]),
        space.series([(7, 0)], hs.OrderedValue(1)),
        space.series([], hs.OrderedValue(0)),
    ]
    euler = hs.build_instance("euler").section.contains
    order = hs.build_instance("broken-order").section.contains
    assert [order(s) for s in series] == [euler(s) for s in series]
    assert [euler(s) for s in series] == [True, False, True, False, True, False, True]


@pytest.mark.parametrize("name", ["euler", "ddt"])
@pytest.mark.parametrize("p", [2, 3])
def test_rational_exponents_over_gf2_and_gf3_pass_every_check(name, p):
    # the power rule's d(g) = g needs an image in GF(p), so the sampler draws
    # no denominator that p divides
    instance = hs.build_instance(name, hs.PrimeField(p), hs.RATIONALS)
    for seed in range(30):
        failing = [r.name for r in hs.run_instance_checks(instance, seed, 20) if not r.ok]
        assert failing == [], seed


@pytest.mark.parametrize("p", [2, 3])
def test_rational_draws_over_gf_p_leave_out_multiples_of_p(p):
    space = hs.SeriesSpace(hs.PrimeField(p), hs.RATIONALS)
    rng = random.Random(p)
    drawn = [hs.random_exponent(rng, hs.RATIONALS, field=space.field) for _ in range(200)]
    drawn += [hs.random_positive(rng, hs.RATIONALS, space.field) for _ in range(200)]
    for ball in hs.random_nest(rng, space, depth=20):
        drawn += [ball.radius.finite, *ball.center.support]
    assert all(g.denominator % p for g in drawn)
    assert {g.denominator for g in drawn} >= {1, 4 if p == 3 else 3}


@pytest.mark.parametrize(
    "field, pairs",
    [
        (
            hs.QQ,
            [
                (Fraction(3, 4), Fraction(-19, 2)),
                (3, Fraction(-37, 4)),
                (Fraction(-4, 5), Fraction(-13, 3)),
                (6, 8),
            ],
        ),
        (hs.PrimeField(5), [(4, Fraction(-19, 2)), (3, Fraction(1, 4)), (2, 5), (4, 6)]),
    ],
)
def test_rational_draws_over_qq_and_gf5_are_pinned(field, pairs):
    # denominators 1-4 are all prime to 5: these draws are the same as before
    # the sampler learnt the field
    space = hs.SeriesSpace(field, hs.RATIONALS)
    s = hs.random_series(random.Random(4242), space, -10, 10, 6, nonzero=True)
    assert s == space.series(pairs)
