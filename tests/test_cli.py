"""Command-line surface: golden outputs, exit codes, output modes."""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from hahnsolve.cli import build_parser, main
from hahnsolve.solver import DEFAULT_MAX_ITER

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Regenerate with scripts/regenerate_goldens.py after a reviewed output change.
GOLDEN_CASES = {
    "integrate_ddt.txt": ["integrate", "--derivation", "ddt", "3*t^2 + t^5"],
    "integrate_euler_json.json": [
        "integrate", "--derivation", "euler", "--output", "json", "t^-1 + 2*t^3",
    ],
    "derive_euler.txt": ["derive", "--derivation", "euler", "3*t^-2 + t^5"],
    "derive_euler_json.json": [
        "derive", "--derivation", "euler", "--output", "json", "3*t^-2 + t^5",
    ],
    "decompose_even_odd.txt": ["decompose", "--parts", "even,odd", "t^2 + t^3 + t^6"],
    "decompose_even_odd_json.json": [
        "decompose", "--parts", "even,odd", "--output", "json", "t^2 + t^3 + t^6",
    ],
    "decompose_span_json.json": [
        "decompose",
        "--parts",
        "span:{1 + t^1; t^1 + t^2},span:{t^1 + -1*t^3},span:{t^2; 2*t^3}",
        "--output",
        "json",
        "2 + 3*t^1 + t^2 + 5*t^3",
    ],
    "check_euler.txt": ["check", "--instance", "euler", "--samples", "50", "--seed", "7"],
    "check_euler_json.json": [
        "check", "--instance", "euler", "--samples", "50", "--seed", "7", "--output", "json",
    ],
    "quotient.txt": ["quotient", "--alpha", "2", "t^-1 + 1 + t^3"],
    "quotient_json.json": ["quotient", "--alpha", "2", "--output", "json", "t^-1 + 1 + t^3"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_matches_committed_golden(self, name):
        code, out, err = run_cli(GOLDEN_CASES[name])
        assert code == 0
        assert err == ""
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_runs_are_deterministic(self, name):
        first = run_cli(GOLDEN_CASES[name])
        second = run_cli(GOLDEN_CASES[name])
        assert first == second


class TestIntegrate:
    def test_precision_flag_stops_early(self):
        code, out, _ = run_cli(
            ["integrate", "--derivation", "euler", "--precision", "4", "t^1 + t^6"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "solution: t^1"
        assert lines[1] == "residual_value: 6"
        assert lines[3] == "exact: false"

    def test_obstruction_exit_code(self):
        code, out, err = run_cli(["integrate", "--derivation", "ddt", "t^-1 + t^2"])
        assert code == 3
        assert out == ""
        assert "obstruction at exponent -1" in err

    def test_iteration_limit_exit_code(self):
        code, _, err = run_cli(
            ["integrate", "--derivation", "ddt", "--max-iter", "1", "1 + t^2"]
        )
        assert code == 4
        assert "iteration limit" in err

    def test_iteration_limit_formats_the_residual_value(self):
        code, out, err = run_cli(["integrate", "--max-iter", "2", "t^1+t^2+t^3"])
        assert code == 4
        assert out == ""
        assert err == "error: iteration limit reached after 2 steps (residual value 3)\n"
        assert "OrderedValue(" not in err

    def test_blurry_target_below_precision_is_a_domain_error(self):
        code, _, err = run_cli(
            ["integrate", "--derivation", "euler", "--precision", "inf", "0 + O(3)"]
        )
        assert code == 1
        assert "valuation" in err

    def test_descending_corrections_sum_in_order(self):
        # the order-reversing table corrects t^2 before t^1
        code, out, err = run_cli(
            ["integrate", "--derivation", "d:1=1,2=1;sigma:1=5,2=3", "t^3 + t^5"]
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "solution: t^1 + t^2",
            "residual_value: inf",
            "iterations: 2",
            "exact: true",
            'trace: {"iter": 1, "residual_value": "5", "term": "t^2"}',
            'trace: {"iter": 2, "residual_value": "inf", "term": "t^1"}',
        ]

    def test_json_output_is_one_line(self):
        code, out, _ = run_cli(
            ["integrate", "--derivation", "ddt", "--output", "json", "3*t^2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "integrate"
        assert payload["result"]["solution"] == {"terms": [["1", "3"]], "truncation": "inf"}
        assert payload["result"]["exact"] is True
        assert payload["trace"] == [
            {"iter": 1, "residual_value": "inf", "term": "t^3"}
        ]


class TestDerive:
    def test_prime_field(self):
        code, out, _ = run_cli(
            ["derive", "--field", "prime:5", "--derivation", "ddt", "t^3 + t^4"]
        )
        assert code == 0
        assert out == "3*t^2 + 4*t^3\n"

    def test_rational_exponents(self):
        code, out, _ = run_cli(
            ["derive", "--group", "rat", "--derivation", "euler", "4*t^1/2"]
        )
        assert code == 0
        assert out == "2*t^1/2\n"

    def test_json_round_trips_the_series(self):
        code, out, _ = run_cli(
            ["derive", "--derivation", "euler", "--output", "json", "2*t^3"]
        )
        assert code == 0
        assert json.loads(out)["result"]["series"]["terms"] == [["6", "3"]]


class TestDecompose:
    def test_prime_field_split(self):
        code, out, _ = run_cli(
            ["decompose", "--field", "prime:5", "--parts", "even,odd", "t^-2 + t^1 + t^4"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "part even: t^-2 + t^4"
        assert lines[1] == "part odd: t^1"
        assert lines[2] == "witness: pass"

    def test_truncated_target_is_certified_to_its_precision(self):
        # a - sum is O(5): its value is only bounded below, by 5 > v(a) = 1
        code, out, err = run_cli(
            ["decompose", "--parts", "even,odd", "--precision", "4", "t^1 + t^2 + O(5)"]
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "part even: t^2",
            "part odd: t^1",
            "witness: pass",
            "residual_value: 5",
        ]

    def test_zero_series_witness_is_vacuous(self):
        code, out, _ = run_cli(["decompose", "--parts", "even,odd", "0"])
        assert code == 0
        assert "witness: vacuous" in out

    @pytest.mark.parametrize("parts", ["even,odd", "span:{t^1},span:{t^2}"])
    def test_target_zero_to_the_precision_is_vacuous(self, parts):
        # t^1 + t^2 lies in the ball of radius 1, so there is nothing to split
        argv = ["decompose", "--parts", parts, "--precision", "1", "t^1 + t^2"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["witness: vacuous", "residual_value: 1"]
        code, out, err = run_cli([*argv, "--output", "json"])
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["witness"], result["iterations"]) == ("vacuous", 0)

    def test_residue_families_never_fail_the_witness(self):
        # seeded targets over QQ, GF(5) and GF(7), solved to a precision at
        # most the target's bound (above it the solve is refused)
        rng = random.Random(16)
        verdicts = set()
        for _ in range(400):
            k = rng.randint(2, 5)
            bound = rng.choice([None, *range(-2, 9)])
            exponents = rng.sample(range(-3, 9), rng.randint(0, 5))
            terms = [
                f"{rng.randint(1, 9)}*t^{g}"
                for g in sorted(exponents)
                if bound is None or g < bound
            ]
            text = " + ".join(terms + ([] if bound is None else [f"O({bound})"])) or "0"
            argv = [
                "decompose",
                "--field", rng.choice(["rationals", "prime:5", "prime:7"]),
                "--parts", ",".join(f"mod:{k}:{r}" for r in range(k)),
                text,
            ]
            top = 10 if bound is None else bound + 1
            precision = rng.choice([None, *range(-3, top), *(["inf"] if bound is None else [])])
            if precision is not None:
                argv += ["--precision", str(precision)]
            code, out, err = run_cli(argv)
            assert (code, err) == (0, ""), argv
            verdicts.add(out.splitlines()[-2])
        assert verdicts == {"witness: pass", "witness: vacuous"}

    def test_not_pseudo_direct_exit_code(self):
        code, _, err = run_cli(
            ["decompose", "--parts", "span:{1 + t^1},span:{1}", "t^1"]
        )
        assert code == 3
        assert "no span combination is a witness" in err

    def test_span_witness_is_found_exactly(self):
        # the whole target goes to the third span; the first two could only
        # reach t^1 by cancelling at t^0
        code, out, _ = run_cli(
            ["decompose", "--parts", "span:{1 + t^1},span:{-1},span:{t^1}", "5*t^1"]
        )
        assert code == 0
        assert out.splitlines()[:4] == [
            "part span:{1 + t^1}: 0",
            "part span:{-1}: 0",
            "part span:{t^1}: 5*t^1",
            "witness: pass",
        ]

    def test_set_pattern_commas_stay_inside_braces(self):
        code, out, _ = run_cli(["decompose", "--parts", "set:{1,2},odd", "t^1 + t^3"])
        assert code == 0
        assert out.splitlines()[:3] == [
            "part set:{1,2}: t^1",
            "part odd: t^3",
            "witness: pass",
        ]

    def test_empty_parts_rejected(self):
        code, _, err = run_cli(["decompose", "--parts", " ", "t^1"])
        assert code == 2
        assert "at least one pattern" in err


TRUNCATED_TARGETS = {
    "integrate": ["integrate", "t^1 + O(5)"],
    "decompose": ["decompose", "--parts", "even,odd", "t^1 + t^2 + O(5)"],
}


class TestTruncatedTarget:
    """Without ``--precision`` a solver command solves to the target's own bound."""

    def test_integrate_solves_to_the_targets_bound(self):
        code, out, err = run_cli(TRUNCATED_TARGETS["integrate"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "solution: 1/2*t^2",
            "residual_value: 5",
            "iterations: 1",
            "exact: false",
            'trace: {"iter": 1, "residual_value": "5", "term": "1/2*t^2"}',
        ]

    def test_decompose_solves_to_the_targets_bound(self):
        code, out, err = run_cli(TRUNCATED_TARGETS["decompose"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "part even: t^2",
            "part odd: t^1",
            "witness: pass",
            "residual_value: 5",
        ]

    @pytest.mark.parametrize("command", sorted(TRUNCATED_TARGETS))
    def test_json_echoes_the_precision_used(self, command):
        code, out, err = run_cli([*TRUNCATED_TARGETS[command], "--output", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["config"]["precision"] == "5"
        assert payload["result"]["residual_value"] == "5"

    @pytest.mark.parametrize("command", sorted(TRUNCATED_TARGETS))
    @pytest.mark.parametrize("precision", ["inf", "9"])
    def test_a_precision_above_the_bound_is_still_refused(self, command, precision):
        code, out, err = run_cli([*TRUNCATED_TARGETS[command], "--precision", precision])
        assert (code, out) == (1, "")
        assert err == "error: residual valuation undetermined below the requested precision\n"


class TestCheck:
    def test_broken_instances_fail_with_exit_one(self):
        for instance in ("broken-order", "broken-monotone", "broken-progress"):
            code, out, _ = run_cli(
                ["check", "--instance", instance, "--samples", "40", "--seed", "3"]
            )
            assert code == 1, instance
            assert "FAIL" in out

    @pytest.mark.parametrize(
        "space",
        [["--field", "prime:7"], ["--group", "rat"], ["--field", "prime:7", "--group", "rat"]],
    )
    def test_broken_instances_refuse_other_spaces(self, space):
        # the broken fixtures exist over the rationals with int exponents
        # only; running them elsewhere must not echo a config it ignores
        for instance in ("broken-order", "broken-monotone", "broken-progress"):
            code, out, err = run_cli(["check", "--instance", instance, *space])
            assert code == 2, instance
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert instance in err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fewer_than_two_samples_are_refused(self, samples):
        # below two samples broken-order's canary pair is cut and every check
        # would pass vacuously
        code, out, err = run_cli(["check", "--instance", "broken-order", "--samples", samples])
        assert code == 2
        assert out == ""
        assert err == "error: --samples must be at least 2\n"

    def test_unknown_instance(self):
        code, _, err = run_cli(["check", "--instance", "nonesuch"])
        assert code == 2
        assert "nonesuch" in err

    def test_json_reports(self):
        code, out, _ = run_cli(
            ["check", "--instance", "ddt", "--samples", "25", "--seed", "1", "--output", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["instance"] == "ddt"
        names = [r["name"] for r in payload["result"]["reports"]]
        assert names == [
            "value_map_order",
            "value_monotonicity",
            "section_progress",
            "value_map_roundtrip",
            "section_injectivity",
            "differential_valuation",
            "derivative_monotonicity",
        ]
        assert all(r["violations"] == [] for r in payload["result"]["reports"])


class TestQuotient:
    def test_class_above_cut_is_blurry_zero(self):
        code, out, _ = run_cli(["quotient", "--alpha", "2", "t^7"])
        assert code == 0
        assert out.splitlines() == ["class: 0 + O(2)", "value: inf"]

    def test_lex_group_quotient(self):
        code, out, _ = run_cli(
            ["quotient", "--group", "lex2", "--alpha", "(1,0)", "t^(0,2) + t^(3,1)"]
        )
        assert code == 0
        assert out.splitlines() == ["class: t^(0,2) + O((1,0))", "value: (0,2)"]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "t^"],
            ["integrate", "--derivation", "newton", "t^1"],
            ["quotient", "--alpha", "x", "t^1"],
            ["derive", "--field", "prime:4", "t^1"],
            ["derive", "--group", "galaxy", "t^1"],
            ["integrate", "--max-iter", "0", "t^1"],
            ["check", "--samples", "-3"],
            ["decompose", "--group", "lex2", "--parts", "even,odd", "t^(1,2)"],
            ["check", "--instance", "nope"],
            ["decompose", "--parts", "even,span:{t^1}", "t^1"],
            ["decompose", "--parts", "span:{t^1 + O(2)}", "t^1"],
            ["decompose", "--parts", "even,span:{t^1}", "0"],
            ["integrate", "--derivation", "d:0=1", "t^2"],
            ["decompose", "--parts", "span:{t^1}", "t^1 + O(3)"],
            ["integrate", "--derivation", "d:1=1,2=1;sigma:1=5,2=5", "t^5"],
            ["derive", "--derivation", "d:1=1,1=2", "t^1"],
            ["derive", "--field", "prime:618970019642690137449562111", "t^1"],  # 2^89 - 1
        ],
    )
    def test_parse_errors_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "{}*t^1"],
            ["derive", "--group", "rat", "t^{}"],
            ["quotient", "--group", "rat", "--alpha={}", "t^1"],
            ["integrate", "--precision={}", "t^1"],
            ["decompose", "--parts", "mod:{}:0", "t^1"],
            ["derive", "--field", "prime:{}", "t^1"],
            ["derive", "--derivation", "d:1={}", "t^1"],
            ["decompose", "--precision={}", "--parts", "even", "t^1"],
            ["integrate", "--max-iter={}", "t^1"],
            ["check", "--samples={}"],
            ["check", "--seed={}"],
        ],
    )
    @pytest.mark.parametrize("number", ["1.5", "1e1", "1_0", "\u0663", "1/0", "1/-2", "(1,2,3)"])
    def test_lenient_numbers_exit_two(self, argv, number):
        code, out, err = run_cli([a.replace("{}", number) for a in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--group", "lex2", "t^(1,2)"],
            ["check", "--instance", "euler", "--group", "lex2", "--samples", "3"],
        ],
    )
    def test_derivation_on_lex2_exits_two(self, argv):
        # the built-in derivations need int or rat exponents
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "integer or rational exponents" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "--field", "prime:3", "--group", "rat", "t^1/3"],
            ["derive", "--field", "prime:2", "--group", "rat", "t^1/2"],
        ],
    )
    def test_exponent_without_image_in_prime_field_exits_two(self, argv):
        # the power rule scales by the exponent, which has no image in GF(p)
        # when p divides its denominator
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "has no image in gf(" in err

    @pytest.mark.parametrize(
        "p, target, code, reply",
        [
            ("2", "t^1/3", 3, "error: obstruction at exponent 1/3\n"),
            ("3", "t^1/3", 3, "error: obstruction at exponent 1/3\n"),
            ("2", "t^1/2", 3, "error: obstruction at exponent 1/2\n"),
            ("5", "t^1/3", 0, "solution: 2*t^4/3\n"),
        ],
    )
    def test_a_preimage_without_image_in_prime_field_is_an_obstruction(
        self, p, target, code, reply
    ):
        # ddt's preimage of 1/3 is 4/3, and d(4/3) = 4/3 has no image in GF(3)
        # and is zero in GF(2): both refuse at the exponent the user typed
        got, out, err = run_cli(["integrate", "--field", f"prime:{p}", "--group", "rat", target])
        assert got == code
        assert (err if code else out.splitlines(keepends=True)[0]) == reply

    @pytest.mark.parametrize("instance", ["euler", "ddt"])
    @pytest.mark.parametrize("p", ["2", "3", "5", "7"])
    def test_prime_field_with_rat_exponents_still_checks(self, instance, p):
        code, out, _ = run_cli(
            ["check", "--instance", instance, "--field", f"prime:{p}", "--group", "rat", "--samples", "20"]
        )
        assert code == 0
        assert "FAIL" not in out


# the options every subcommand may share, in the order the JSON config echoes them
SHARED_OPTIONS = ("field", "group", "precision", "max_iter", "output")
MINIMAL_ARGV = {
    "integrate": ["integrate", "t^1"],
    "derive": ["derive", "t^1"],
    "decompose": ["decompose", "--parts", "even,odd", "t^1"],
    "check": ["check", "--samples", "2"],
    "quotient": ["quotient", "--alpha", "2", "t^1"],
}


class TestSharedOptions:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_json_config_echoes_exactly_the_options_taken(self, command):
        argv = MINIMAL_ARGV[command]
        defined = vars(build_parser().parse_args(argv))
        code, out, _ = run_cli([*argv, "--output", "json"])
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config) == [name for name in SHARED_OPTIONS if name in defined]

    @pytest.mark.parametrize("command", ["derive", "check", "quotient"])
    @pytest.mark.parametrize("option", [["--precision", "3"], ["--max-iter", "1"]])
    def test_solver_options_are_refused_where_no_solver_runs(self, command, option):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([*MINIMAL_ARGV[command], *option])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["integrate", "decompose"])
    def test_solver_commands_echo_the_budget(self, command):
        argv = [*MINIMAL_ARGV[command], "--precision", "04", "--max-iter", "7", "--output", "json"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["config"] == {
            "field": "rationals",
            "group": "int",
            "precision": "4",
            "max_iter": 7,
            "output": "json",
        }

    @pytest.mark.parametrize("command", ["integrate", "decompose"])
    def test_the_default_budget_is_the_library_one(self, command):
        assert build_parser().parse_args(MINIMAL_ARGV[command]).max_iter == DEFAULT_MAX_ITER
