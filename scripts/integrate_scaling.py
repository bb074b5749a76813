#!/usr/bin/env python3
"""Time `integrate` against its term-wise oracle as the target grows.

For d/dt over QQ with rational exponents, each size from 100 to 3,200 terms
gets one seeded dense target; the script prints the median of five timings
of `integrate` and of `termwise_integral_oracle`, and their ratio.  The solver
takes one correction step per term and the oracle one pass, so a ratio that
stays flat as the size doubles means a step costs the same at every size.
Exits 1 if a solution differs from the oracle.  Takes no arguments:

    python3 scripts/integrate_scaling.py
"""

import random
import statistics
import sys
import time
from fractions import Fraction

from hahnsolve import QQ, RATIONALS, DifferentialFieldSpec, SeriesSpace, ddt
from hahnsolve import integrate, termwise_integral_oracle

DSPEC = DifferentialFieldSpec(QQ, RATIONALS, ddt(QQ, RATIONALS))
SIZES = (100, 200, 400, 800, 1600, 3200)


def dense_target(terms: int, seed: int):
    """``terms`` monomials at distinct positive exponents ``k/3``, none
    obstructed (d/dt has no preimage only at ``-1``)."""
    rng = random.Random(seed)
    numerators = rng.sample(range(1, 4 * terms), terms)
    return SeriesSpace(QQ, RATIONALS).series(
        [(rng.randint(1, 9), Fraction(k, 3)) for k in numerators]
    )


def median_time(fn, repeat: int):
    """The median wall time of ``repeat`` calls, and the last call's value."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


def main(sizes=SIZES, repeat: int = 5) -> int:
    print(f"{'terms':>6} {'integrate_ms':>13} {'oracle_ms':>10} {'ratio':>6}")
    for terms in sizes:
        b = dense_target(terms, seed=terms)
        solve_s, result = median_time(lambda: integrate(DSPEC, b), repeat)
        oracle_s, expected = median_time(lambda: termwise_integral_oracle(DSPEC, b), repeat)
        if result.solution != expected:
            print(f"{terms}: solution differs from the term-wise oracle", file=sys.stderr)
            return 1
        print(
            f"{terms:>6} {solve_s * 1e3:>13.2f} {oracle_s * 1e3:>10.2f}"
            f" {solve_s / oracle_s:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
