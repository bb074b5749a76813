"""Command-line interface: integrate, derive, decompose, check, quotient.

Exit codes form a small taxonomy so scripts can tell failure modes apart:
0 success, 1 flagged violation or domain error, 2 parse error, 3 a section
obstruction (no admissible correction exists), 4 iteration budget exhausted.
All output is deterministic for a fixed argument list and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

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
from .fields import CoefficientField, _split_top_level, field_by_name
from .fixtures import build_instance, instance_names, run_instance_checks
from .parsing import parse_series, series_to_json_dict, series_to_text
from .pseudo_direct import (
    ProductElement,
    check_pseudo_direct_witness,
    decompose_solve,
    parse_subgroup,
)
from .solver import trace_entries
from .valuegroups import OrderedValue, ValueGroup, group_by_name, ov_format, ov_parse


@dataclass(frozen=True)
class CliConfig:
    field: CoefficientField
    group: ValueGroup
    precision: OrderedValue
    max_iter: int
    output: str

    def as_dict(self) -> dict:
        return {
            "field": self.field.name,
            "group": self.group.name,
            "precision": ov_format(self.group, self.precision),
            "max_iter": self.max_iter,
            "output": self.output,
        }


def _config_from(args: argparse.Namespace) -> CliConfig:
    field = field_by_name(args.field)
    group = group_by_name(args.group)
    if args.max_iter <= 0:
        raise ParseError("--max-iter must be positive")
    return CliConfig(
        field=field,
        group=group,
        precision=ov_parse(group, args.precision),
        max_iter=args.max_iter,
        output=args.output,
    )


def _value_str(config: CliConfig, v: OrderedValue) -> str:
    return ov_format(config.group, v)


def _product_text(t: ProductElement) -> str:
    return "(" + "; ".join(series_to_text(s) for s in t.components) + ")"


def _emit(config: CliConfig, command: str, text_lines: list[str], result: dict, trace: list[dict]):
    if config.output == "json":
        print(
            json.dumps(
                {
                    "command": command,
                    "config": config.as_dict(),
                    "result": result,
                    "trace": trace,
                }
            )
        )
    else:
        for line in text_lines:
            print(line)


def cmd_integrate(config: CliConfig, args: argparse.Namespace) -> int:
    derivation = parse_derivation(config.field, config.group, args.derivation)
    dspec = DifferentialFieldSpec(config.field, config.group, derivation)
    b = parse_series(config.field, config.group, args.series)
    result = integrate(dspec, b, precision=config.precision, max_iter=config.max_iter)
    trace = trace_entries(result, series_to_text, functools.partial(ov_format, config.group))
    lines = [
        f"solution: {series_to_text(result.solution)}",
        f"residual_value: {_value_str(config, result.residual_value)}",
        f"iterations: {result.iterations}",
        f"exact: {'true' if result.exact else 'false'}",
    ]
    lines += [f"trace: {json.dumps(entry)}" for entry in trace]
    _emit(
        config,
        "integrate",
        lines,
        {
            "solution": series_to_json_dict(result.solution),
            "residual_value": _value_str(config, result.residual_value),
            "iterations": result.iterations,
            "exact": result.exact,
        },
        trace,
    )
    return 0


def cmd_derive(config: CliConfig, args: argparse.Namespace) -> int:
    derivation = parse_derivation(config.field, config.group, args.derivation)
    DifferentialFieldSpec(config.field, config.group, derivation)
    s = parse_series(config.field, config.group, args.series)
    image = derive(derivation, s)
    _emit(
        config,
        "derive",
        [series_to_text(image)],
        {"series": series_to_json_dict(image)},
        [],
    )
    return 0


def cmd_decompose(config: CliConfig, args: argparse.Namespace) -> int:
    subgroups = [
        parse_subgroup(config.field, config.group, part)
        for part in _split_top_level(args.parts, ",")
        if part.strip()
    ]
    if not subgroups:
        raise ParseError("--parts needs at least one pattern")
    a = parse_series(config.field, config.group, args.series)
    result = decompose_solve(
        subgroups, a, precision=config.precision, max_iter=config.max_iter
    )
    parts: ProductElement = result.solution
    if a.terms:
        verdict = "pass" if check_pseudo_direct_witness(a, parts) else "FAIL"
    else:
        verdict = "vacuous"
    trace = trace_entries(result, _product_text, functools.partial(ov_format, config.group))
    lines = [
        f"part {sub.name}: {series_to_text(s)}"
        for sub, s in zip(subgroups, parts.components)
    ]
    lines.append(f"witness: {verdict}")
    lines.append(f"residual_value: {_value_str(config, result.residual_value)}")
    _emit(
        config,
        "decompose",
        lines,
        {
            "parts": [series_to_json_dict(s) for s in parts.components],
            "witness": verdict,
            "residual_value": _value_str(config, result.residual_value),
            "iterations": result.iterations,
        },
        trace,
    )
    return 0


def cmd_check(config: CliConfig, args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise ParseError("--samples must be nonnegative")
    instance = build_instance(args.instance, config.field, config.group)
    reports = run_instance_checks(instance, seed=args.seed, samples=args.samples)
    lines = [r.summary() for r in reports]
    _emit(
        config,
        "check",
        lines,
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
        [],
    )
    return 0 if all(r.ok for r in reports) else 1


def cmd_quotient(config: CliConfig, args: argparse.Namespace) -> int:
    alpha = ov_parse(config.group, args.alpha)
    s = parse_series(config.field, config.group, args.series)
    truncated = s.truncate(alpha)
    value = s.quotient_valuation(alpha)
    _emit(
        config,
        "quotient",
        [
            f"class: {series_to_text(truncated)}",
            f"value: {_value_str(config, value)}",
        ],
        {
            "class": series_to_json_dict(truncated),
            "value": _value_str(config, value),
        },
        [],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="rationals", help="rationals or prime:<p>")
    common.add_argument("--group", default="int", help="int, rat or lex2")
    common.add_argument("--precision", default="inf", help="exponent cutoff or inf")
    common.add_argument("--max-iter", type=int, default=10000)
    common.add_argument("--output", choices=["text", "json"], default="text")

    parser = argparse.ArgumentParser(
        prog="hahnsolve",
        description="Exact generalized power series: integration, decomposition, "
        "quotients and hypothesis checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", parents=[common], help="solve D(a) = b")
    p.add_argument("--derivation", default="ddt")
    p.add_argument("series")
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("derive", parents=[common], help="apply a derivation")
    p.add_argument("--derivation", default="ddt")
    p.add_argument("series")
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser(
        "decompose", parents=[common], help="split a series across subgroups"
    )
    p.add_argument("--parts", required=True, help="comma-separated patterns")
    p.add_argument("series")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("check", parents=[common], help="run hypothesis checks")
    p.add_argument("--instance", default="euler", help=", ".join(instance_names()))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
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
    args = _parser().parse_args(argv)
    try:
        config = _config_from(args)
        return args.handler(config, args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IterationLimit as e:
        value = ov_format(config.group, e.residual_value)
        print(f"error: {e} (residual value {value})", file=sys.stderr)
        return 4
    except SectionFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IndeterminateValuation, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
