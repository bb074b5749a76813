"""Check fixtures: the instance table, report order, canaries and pinned counts."""

import random

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


@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_fewer_than_two_samples_are_refused(samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        hs.run_instance_checks(hs.build_instance("broken-order"), seed=0, samples=samples)


@pytest.mark.parametrize("name", NAMES[2:])
def test_two_samples_catch_each_broken_instance(name):
    reports = hs.run_instance_checks(hs.build_instance(name), seed=0, samples=2)
    assert not all(r.ok for r in reports)
