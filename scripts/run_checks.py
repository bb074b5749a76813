#!/usr/bin/env python3
"""Run every named check instance and confirm the checks have teeth.

The honest instances must pass every hypothesis check.  Each deliberately
broken instance must fail the check it was built to violate and pass the
rest, except that ``broken-order`` may also fail ``value_monotonicity``: a
sampled section element whose ``t^2`` and ``t^3`` coefficients cancel
collapses under its relabelling and genuinely breaks value transfer (seed
2016045923 with 60 samples draws one).  The exit code is zero only when both
halves hold, so this doubles as a quick calibration that a refactor has not
silenced a check.
"""

import argparse
import sys

from hahnsolve import ParseError, build_instance, instance_names, run_instance_checks
from hahnsolve.fields import parse_number

EXPECTED_FAILURE = {
    "broken-order": "value_map_order",
    "broken-monotone": "value_monotonicity",
    "broken-progress": "section_progress",
}
MAY_ALSO_FAIL = {"broken-order": {"value_monotonicity"}}


def run_one(name: str, seed: int, samples: int, verbose: bool) -> bool:
    instance = build_instance(name)
    reports = run_instance_checks(instance, seed=seed, samples=samples)
    failing = {r.name for r in reports if not r.ok}
    expected = EXPECTED_FAILURE.get(name)
    tolerated = MAY_ALSO_FAIL.get(name, set())
    ok = failing - tolerated == ({expected} if expected else set())

    verdict = "ok" if ok else "UNEXPECTED"
    intent = f"should fail {expected}" if expected else "should pass all"
    print(f"{name}: {verdict} ({instance.description}; {intent})")
    for report in reports:
        print(f"  {report.summary()}")
        if verbose:
            for violation in report.violations[:5]:
                print(f"    {violation}")
    return ok


def _integer(text: str) -> int:
    """An integer under the library's one number grammar, as the CLI reads it."""
    try:
        return parse_number(text, "value", integer=True)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=_integer, default=200)
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument(
        "--verbose", action="store_true", help="print the first few violation records"
    )
    args = parser.parse_args(argv)
    if args.samples < 2:
        parser.error("--samples must be at least 2")

    results = [
        run_one(name, args.seed, args.samples, args.verbose)
        for name in instance_names()
    ]
    good = sum(results)
    print(f"{good}/{len(results)} instances behaved as intended")
    return 0 if good == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
