"""The example scripts and the README's command lines run in-process and exit 0."""

import contextlib
import io
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from hahnsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def readme_commands() -> list[str]:
    """The ``hahnsolve ...`` lines of the README's first block under "Command line"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("hahnsolve ")]


@pytest.mark.parametrize(
    "argv",
    [
        # this seed draws the t^2/t^3 cancellation that broken-order may also fail on
        ["run_checks.py", "--seed", "2016045923", "--samples", "60"],
        ["integration_demo.py"],
    ],
)
def test_script_exits_zero(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
    assert exit_info.value.code == 0, out.getvalue()


def test_integrate_scaling_matches_the_oracle_at_small_sizes(capsys):
    """One timing per size, so the median is that timing: sizes, agreement and
    a positive step cost only, as the machine's speed is not the script's to
    assert."""
    script = runpy.run_path(str(SCRIPTS / "integrate_scaling.py"))
    assert script["main"]((3, 6, 24), repeat=1) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "step_us"
    assert [int(row.split()[0]) for row in rows] == [3, 6, 24]
    assert all(float(row.split()[-1]) > 0 for row in rows)
    assert len(script["dense_target"](24, seed=24).terms) == 24


@pytest.mark.parametrize("samples", ["0", "1"])
def test_run_checks_refuses_fewer_than_two_samples(samples, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_checks.py", "--samples", samples])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_checks.py"), run_name="__main__")
    assert exit_info.value.code == 2
    assert "--samples must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--samples", "--seed"])
@pytest.mark.parametrize("number", ["1_0", "٣"])
def test_run_checks_reads_integers_by_the_number_grammar(option, number, monkeypatch, capsys):
    # int() would take both forms; the CLI refuses them
    monkeypatch.setattr(sys, "argv", ["run_checks.py", option, number])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_checks.py"), run_name="__main__")
    assert exit_info.value.code == 2
    assert f"argument {option}: bad value" in capsys.readouterr().err


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert code == 0, err.getvalue()
