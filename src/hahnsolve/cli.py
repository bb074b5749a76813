"""Command-line interface: integrate, derive, decompose, check, quotient.

Exit codes form a small taxonomy so scripts can tell failure modes apart:
0 success, 1 flagged violation or domain error, 2 malformed arguments and
configurations a built-in cannot serve, 3 a section obstruction (no
admissible correction exists), 4 iteration budget exhausted.
All output is deterministic for a fixed argument list and seed.

Each ``cmd_*`` handler computes and returns its reply (exit code, text lines,
JSON result, trace); ``main`` prints it once, in the chosen output mode, or
maps the exception a handler raised to its exit code.  The solver commands
solve to ``--precision`` if given and otherwise to the target's own truncation
bound, and their reply carries the precision used for the JSON ``config``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple, Sequence

from .differential import (
    DifferentialFieldSpec,
    derive,
    integrate,
    parse_derivation,
)
from .errors import (
    IndeterminateValuation,
    IterationLimit,
    ParseError,
    SectionFailure,
)
from .fields import CoefficientField, _split_top_level, field_by_name, parse_number
from .fixtures import build_instance, instance_names, run_instance_checks
from .parsing import parse_series, series_to_json_dict, series_to_text
from .pseudo_direct import (
    ProductElement,
    check_pseudo_direct_witness,
    decompose_solve,
    parse_subgroup,
)
from .solver import DEFAULT_MAX_ITER, trace_entries
from .valuegroups import OrderedValue, ValueGroup, group_by_name, ov_format, ov_parse


class _OptionError(Exception):
    """A ``ParseError`` from an option's ``type=``; argparse would print usage for it."""


def _integer(name: str, least: int | None, text: str) -> int:
    try:
        n = parse_number(text, name, integer=True)
        if least is not None and n < least:
            raise ParseError(f"{name} must be at least {least}")
        return n
    except ParseError as e:
        raise _OptionError(e) from None


class _Reply(NamedTuple):
    """What a command prints: exit code, text lines, JSON result and trace;
    the solver commands add the precision they solved to."""

    code: int
    lines: list[str]
    result: dict
    trace: Sequence[dict] = ()
    precision: OrderedValue | None = None


def _emit(args: argparse.Namespace, field: CoefficientField, group: ValueGroup, reply: _Reply):
    """Print the reply's text lines, or one JSON object whose ``config``
    echoes the shared options this command takes."""
    if args.output == "text":
        for line in reply.lines:
            print(line)
        return
    config = {"field": field.name, "group": group.name}
    if "max_iter" in args:  # a solver command
        config["precision"] = ov_format(group, reply.precision)
        config["max_iter"] = args.max_iter
    config["output"] = args.output
    head = {"command": args.command, "config": config}
    print(json.dumps({**head, "result": reply.result, "trace": reply.trace}))


def _requested_precision(args: argparse.Namespace, group: ValueGroup) -> OrderedValue | None:
    """``--precision`` if given; ``None`` stands for the target's own bound."""
    return None if args.precision is None else ov_parse(group, args.precision)


def cmd_integrate(args: argparse.Namespace, field: CoefficientField, group: ValueGroup) -> _Reply:
    precision = _requested_precision(args, group)
    derivation = parse_derivation(field, group, args.derivation)
    dspec = DifferentialFieldSpec(field, group, derivation)
    b = parse_series(field, group, args.series)
    precision = b.truncation if precision is None else precision
    result = integrate(dspec, b, precision=precision, max_iter=args.max_iter)
    trace = trace_entries(result, group)
    value = ov_format(group, result.residual_value)
    lines = [
        f"solution: {series_to_text(result.solution)}",
        f"residual_value: {value}",
        f"iterations: {result.iterations}",
        f"exact: {'true' if result.exact else 'false'}",
        *(f"trace: {json.dumps(entry)}" for entry in trace),
    ]
    return _Reply(
        0,
        lines,
        {
            "solution": series_to_json_dict(result.solution),
            "residual_value": value,
            "iterations": result.iterations,
            "exact": result.exact,
        },
        trace,
        precision,
    )


def cmd_derive(args: argparse.Namespace, field: CoefficientField, group: ValueGroup) -> _Reply:
    derivation = parse_derivation(field, group, args.derivation)
    DifferentialFieldSpec(field, group, derivation)
    image = derive(derivation, parse_series(field, group, args.series))
    return _Reply(0, [series_to_text(image)], {"series": series_to_json_dict(image)})


def cmd_decompose(args: argparse.Namespace, field: CoefficientField, group: ValueGroup) -> _Reply:
    precision = _requested_precision(args, group)
    subgroups = [
        parse_subgroup(field, group, part)
        for part in _split_top_level(args.parts, ",")
        if part.strip()
    ]
    if not subgroups:
        raise ParseError("--parts needs at least one pattern")
    a = parse_series(field, group, args.series)
    precision = a.truncation if precision is None else precision
    result = decompose_solve(subgroups, a, precision=precision, max_iter=args.max_iter)
    parts: ProductElement = result.solution
    if a.valuation_lower_bound() >= precision:  # a is zero to the precision solved to
        verdict = "vacuous"
    else:
        verdict = "pass" if check_pseudo_direct_witness(a, parts) else "FAIL"
    value = ov_format(group, result.residual_value)
    lines = [
        *(f"part {sub.name}: {series_to_text(s)}" for sub, s in zip(subgroups, parts.components)),
        f"witness: {verdict}",
        f"residual_value: {value}",
    ]
    return _Reply(
        0,
        lines,
        {
            "parts": [series_to_json_dict(s) for s in parts.components],
            "witness": verdict,
            "residual_value": value,
            "iterations": result.iterations,
        },
        trace_entries(result, group),
        precision,
    )


def cmd_check(args: argparse.Namespace, field: CoefficientField, group: ValueGroup) -> _Reply:
    instance = build_instance(args.instance, field, group)
    reports = run_instance_checks(instance, seed=args.seed, samples=args.samples)
    return _Reply(
        0 if all(r.ok for r in reports) else 1,
        [r.summary() for r in reports],
        {
            "instance": instance.name,
            "seed": args.seed,
            "samples": args.samples,
            "reports": [
                {
                    "name": r.name,
                    "checked": r.checked,
                    "skipped": r.skipped,
                    "violations": [str(v) for v in r.violations],
                }
                for r in reports
            ],
        },
    )


def cmd_quotient(args: argparse.Namespace, field: CoefficientField, group: ValueGroup) -> _Reply:
    alpha = ov_parse(group, args.alpha)
    s = parse_series(field, group, args.series)
    truncated = s.truncate(alpha)
    value = ov_format(group, s.quotient_valuation(alpha))
    return _Reply(
        0,
        [f"class: {series_to_text(truncated)}", f"value: {value}"],
        {"class": series_to_json_dict(truncated), "value": value},
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="rationals", help="rationals or prime:<p>")
    common.add_argument("--group", default="int", help="int, rat or lex2")
    common.add_argument("--output", choices=["text", "json"], default="text")
    # taken only by the commands that run the solver
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("--precision", help="exponent cutoff or inf")
    solving.add_argument(
        "--max-iter",
        type=functools.partial(_integer, "--max-iter", 1),
        default=DEFAULT_MAX_ITER,
    )

    parser = argparse.ArgumentParser(
        prog="hahnsolve",
        description="Exact generalized power series: integration, decomposition, "
        "quotients and hypothesis checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", parents=[common, solving], help="solve D(a) = b")
    p.add_argument("--derivation", default="ddt")
    p.add_argument("series")
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("derive", parents=[common], help="apply a derivation")
    p.add_argument("--derivation", default="ddt")
    p.add_argument("series")
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser(
        "decompose", parents=[common, solving], help="split a series across subgroups"
    )
    p.add_argument("--parts", required=True, help="comma-separated patterns")
    p.add_argument("series")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("check", parents=[common], help="run hypothesis checks")
    p.add_argument("--instance", default="euler", help=", ".join(instance_names()))
    p.add_argument("--samples", type=functools.partial(_integer, "--samples", 2), default=200)
    p.add_argument("--seed", type=functools.partial(_integer, "--seed", None), default=0)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "quotient", parents=[common], help="truncate and value a series class"
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("series")
    p.set_defaults(handler=cmd_quotient)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        field, group = field_by_name(args.field), group_by_name(args.group)
        reply = args.handler(args, field, group)
        _emit(args, field, group, reply)
        return reply.code
    except (ParseError, _OptionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IterationLimit as e:
        value = ov_format(group, e.residual_value)
        print(f"error: {e} (residual value {value})", file=sys.stderr)
        return 4
    except SectionFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IndeterminateValuation, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
