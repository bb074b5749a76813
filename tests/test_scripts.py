"""The example scripts run in-process and exit 0."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
