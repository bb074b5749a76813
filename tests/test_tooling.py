"""The benchmark tracer's private targets still resolve in the package.

``perfbench/tracer.py`` wraps a few helpers by name (``"layer:qualname"``).
Its own tests live outside this suite, so a rename here would otherwise
break ``perfbench/run.py --trace 1`` unseen.  The tracer is loaded from its
file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import hahnsolve  # noqa: F401  (the tracer resolves targets in sys.modules)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
