"""The sampler's draw primitive against ``random.Random``, and its empty ranges.

``sampling._uniform`` replaces ``choice`` and ``randrange`` on every number the
sampler draws.  For every length from 1 (``k = 1``, where ``getrandbits(1)``
redraws each 1) to 70 and for GF(p)'s ``range(1, p)`` past 2**64, its values
and the generator state after them must be those of the library calls.  An
empty range must be refused with ``choice``'s ``IndexError`` when a number is
drawn, as the library refuses it, and never loop.
"""

import random

import pytest

import hahnsolve as hs
from hahnsolve import sampling

SEEDS = (0, 1, 7, 4242, 2016045923)
P = 18446744073709551629  # 2**64 + 13, a prime; range(1, P) has no len


@pytest.mark.parametrize("seed", SEEDS)
def test_every_length_draws_as_choice_does(seed):
    for n in range(1, 71):
        for lo in (0, -10, 3):
            ours, theirs = random.Random(seed), random.Random(seed)
            draw = sampling._uniform(ours, lo, lo + n)
            got = [draw() for _ in range(8)]
            want = [theirs.choice(range(lo, lo + n)) for _ in range(8)]
            assert got == want, (n, lo)
            assert ours.getstate() == theirs.getstate(), (n, lo)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_range_past_two_to_the_64_draws_as_randrange_does(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = sampling._uniform(ours, 1, P)
    assert [draw() for _ in range(50)] == [theirs.randrange(1, P) for _ in range(50)]
    assert ours.getstate() == theirs.getstate()


class _Bounded(random.Random):
    """A generator that fails the test instead of drawing forever."""

    def getrandbits(self, k):
        self.calls = getattr(self, "calls", 0) + 1
        assert self.calls < 10_000, "the draw does not end"
        return super().getrandbits(k)


@pytest.mark.parametrize("lo, hi", [(3, 3), (5, 2), (0, -1)])
def test_an_empty_range_is_refused_when_drawn_from(lo, hi):
    rng = _Bounded(0)
    state = rng.getstate()
    draw = sampling._uniform(rng, lo, hi)  # building it draws nothing
    with pytest.raises(IndexError, match="empty sequence"):
        draw()
    assert rng.getstate() == state


@pytest.mark.parametrize("group", [hs.INTEGERS, hs.RATIONALS, hs.LEX2], ids=str)
@pytest.mark.parametrize("field", [hs.QQ, hs.PrimeField(7)], ids=str)
def test_a_nonzero_series_from_an_empty_window_is_refused(field, group):
    space = hs.SeriesSpace(field, group)
    for seed in range(20):
        with pytest.raises(IndexError, match="empty sequence"):
            hs.random_series(_Bounded(seed), space, 5, 2, 3, nonzero=True)


def test_an_empty_window_still_gives_the_zero_series_for_a_count_of_zero():
    """A draw of no terms reads no exponent, so it does not reach the empty
    window, as ``choice`` never did."""
    space = hs.SeriesSpace(hs.QQ, hs.INTEGERS)
    outcomes = set()
    for seed in range(40):
        try:
            s = hs.random_series(_Bounded(seed), space, 5, 2, 3)
        except IndexError:
            outcomes.add("refused")
        else:
            assert s == space.zero
            outcomes.add("zero")
    assert outcomes == {"refused", "zero"}
