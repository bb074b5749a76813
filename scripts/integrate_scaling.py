#!/usr/bin/env python3
"""Time `integrate` against its term-wise oracle as the target grows.

For d/dt over QQ with rational exponents, each size from 100 to 3,200 terms
gets one seeded dense target.  `integrate` and `termwise_integral_oracle`
are timed in alternation, five pairs, and the script prints the median time
of each and the median of the five per-pair ratios, so both timings behind a
ratio come from the same stretch of machine speed.  The solver takes one
correction step per term and the oracle one pass, so a ratio that stays flat
as the size doubles means a step costs the same at every size.  `step_us` is
that cost: the median `integrate` time over its number of correction steps,
at reference speed.  Each size's timings are bracketed by the benchmark's
`reference_ns` (`perfbench/run.py`, imported, not copied) and `step_us` is
scaled by `REF_NS` over the mean of the two, as the benchmark scales its
times, so runs taken while the machine is slower or faster compare.  The
other columns are wall times.  Exits 1 if a solution differs from the
oracle.  Takes no arguments:

    python3 scripts/integrate_scaling.py
"""

import importlib.util
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from hahnsolve import QQ, RATIONALS, DifferentialFieldSpec, SeriesSpace, ddt
from hahnsolve import integrate, termwise_integral_oracle

DSPEC = DifferentialFieldSpec(QQ, RATIONALS, ddt(QQ, RATIONALS))
SIZES = (100, 200, 400, 800, 1600, 3200)


def _benchmark_runner():
    """``perfbench/run.py`` as a module, loaded without writing bytecode beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    writing, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writing
    return module


def dense_target(terms: int, seed: int):
    """``terms`` monomials at distinct positive exponents ``k/3``, none
    obstructed (d/dt has no preimage only at ``-1``)."""
    rng = random.Random(seed)
    numerators = rng.sample(range(1, 4 * terms), terms)
    return SeriesSpace(QQ, RATIONALS).series(
        [(rng.randint(1, 9), Fraction(k, 3)) for k in numerators]
    )


def _timed(fn):
    """The wall time of one call of ``fn``, and its value."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def paired_times(solve, oracle, repeat: int):
    """Medians of ``repeat`` timings of ``solve`` and of ``oracle``, taken in
    alternation, and the median of the per-pair ratios; then both last values.
    Each pair is timed back to back, so a change in machine speed between
    pairs moves both timings of a pair and leaves its ratio alone."""
    solve_times, oracle_times, ratios = [], [], []
    for _ in range(repeat):
        solve_s, result = _timed(solve)
        oracle_s, expected = _timed(oracle)
        solve_times.append(solve_s)
        oracle_times.append(oracle_s)
        ratios.append(solve_s / oracle_s)
    median = statistics.median
    return median(solve_times), median(oracle_times), median(ratios), result, expected


def main(sizes=SIZES, repeat: int = 5) -> int:
    bench = _benchmark_runner()
    print(f"{'terms':>6} {'integrate_ms':>13} {'oracle_ms':>10} {'ratio':>6} {'step_us':>8}")
    ref_before = bench.reference_ns()
    for terms in sizes:
        b = dense_target(terms, seed=terms)
        solve_s, oracle_s, ratio, result, expected = paired_times(
            lambda: integrate(DSPEC, b), lambda: termwise_integral_oracle(DSPEC, b), repeat
        )
        ref_after = bench.reference_ns()
        if result.solution != expected:
            print(f"{terms}: solution differs from the term-wise oracle", file=sys.stderr)
            return 1
        speed = bench.REF_NS / ((ref_before + ref_after) / 2)
        step_us = solve_s / result.iterations * 1e6 * speed
        ref_before = ref_after
        print(
            f"{terms:>6} {solve_s * 1e3:>13.2f} {oracle_s * 1e3:>10.2f} {ratio:>6.2f}"
            f" {step_us:>8.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
