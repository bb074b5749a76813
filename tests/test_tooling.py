"""Repository tooling: the benchmark tracer's targets and the README layout.

``perfbench/tracer.py`` wraps a few helpers by name (``"layer:qualname"``).
Its own tests live outside this suite, so a rename here would otherwise
break ``perfbench/run.py --trace 1`` unseen.  The tracer is loaded from its
file without writing bytecode next to it.  The README's Layout block must
name every module of the package, no more and no fewer.
"""

import importlib.util
import re
import sys
from pathlib import Path

import hahnsolve  # noqa: F401  (the tracer resolves targets in sys.modules)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_named_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer_readonly", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for group in tracer.COUNT_ONLY.values() for t in group]
    targets += [*tracer.EXTRA_SPANS, tracer.GRID, *tracer._MEASURES]
    assert "pseudo_direct:_grid" in targets
    for target in targets:
        assert callable(tracer._resolve(target)[2]), target


def test_readme_layout_names_every_module():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py)\b", layout, flags=re.MULTILINE)
    modules = sorted(p.name for p in (ROOT / "src" / "hahnsolve").glob("*.py"))
    assert sorted(listed) == [m for m in modules if m != "__init__.py"]
