"""Run-time wrappers around hahnsolve's public functions, for the traced pass.

Layers are the modules of ``src/hahnsolve``.  ``Tracer.install`` wraps every
public module-level function and every public method of the classes each
layer module defines, plus a few private helpers that a layer metric needs
(the Gauss-Jordan solve and the grid search in ``pseudo_direct``).  A wrapped
module-level function is rebound in every hahnsolve module that imported it,
so calls through ``from .x import f`` are traced too.  ``Tracer.remove`` puts
every original object back.  Nothing is installed unless a traced pass asks
for it, so the untraced run measures the unmodified program.

Two kinds of wrapper exist:

* span wrappers record name, start, end, parent span and operation id into
  ``SpanStore``; layer self time and call counts come from those spans;
* count-only wrappers increment a counter.  They sit on the leaf calls that
  run millions of times per operation (value-group comparisons, field
  arithmetic, series validation), where a span each would swamp the run.
  Their time is part of the self time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "hahnsolve"

SPAN_LAYERS = (
    "series",
    "solver",
    "differential",
    "pseudo_direct",
    "ultrametric",
    "parsing",
    "fixtures",
    "sampling",
    "reporting",
    "cli",
)

# counter name -> the leaf callables it counts ("module:Qualified.name")
COUNT_ONLY = {
    "valuegroups.compare": (
        "valuegroups:IntegerGroup.compare",
        "valuegroups:RationalGroup.compare",
        "valuegroups:LexPair.compare",
        "valuegroups:ov_compare",
    ),
    "fields.op": tuple(
        f"fields:{cls}.{op}"
        for cls in ("RationalField", "PrimeField")
        for op in ("add", "mul", "neg", "inv")
    )
    + ("fields:CoefficientField.sub", "fields:CoefficientField.div"),
    "fields.is_zero": ("fields:CoefficientField.is_zero",),
    "series.construct": ("series:Series.__post_init__",),
}

# private or dunder callables that get a span because a layer metric needs it
EXTRA_SPANS = (
    "ultrametric:Nest.__post_init__",
    "pseudo_direct:_solve_linear",
    "pseudo_direct:_span_section",
)

GRID = "pseudo_direct:_grid"

# sections that the correction loop calls once per iteration
SECTION_SPANS = ("differential.asymptotic_section", "pseudo_direct.pseudo_direct_section")


class SpanStore:
    """Spans kept in flat arrays: name id, start and end (ns), parent, op id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int, op: int) -> int:
        """Append a finished span; returns its index (used by tests)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children.

        Children of one span never overlap (one thread), so the part of the
        parent's interval they cover is the sum of their durations.
        """
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer, the layer being the span name's prefix."""
        totals: Counter = Counter()
        for i, ns in enumerate(self.self_ns()):
            totals[self.names[self.name[i]].split(".", 1)[0]] += ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name)

    def children_named(self, parent_names, child_names) -> int:
        """Spans named in ``child_names`` whose parent is named in ``parent_names``."""
        parents = {self._ids[n] for n in parent_names if n in self._ids}
        kids = {self._ids[n] for n in child_names if n in self._ids}
        return sum(
            1
            for i, p in enumerate(self.parent)
            if p >= 0 and self.name[i] in kids and self.name[p] in parents
        )

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,op,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(target: str):
    """``"layer:Cls.attr"`` or ``"layer:func"`` -> (owner, attr, object)."""
    layer, _, qual = target.partition(":")
    owner = sys.modules[f"{PACKAGE}.{layer}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def _public_targets(layer: str) -> list[str]:
    """Public functions and concrete public methods defined in a layer module."""
    mod = sys.modules[f"{PACKAGE}.{layer}"]
    targets = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            targets.append(f"{layer}:{name}")
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(member)
                    and not getattr(member, "__isabstractmethod__", False)
                ):
                    targets.append(f"{layer}:{name}.{attr}")
    return targets


def span_name(target: str) -> str:
    layer, _, qual = target.partition(":")
    return f"{layer}.{qual}"


class Tracer:
    """Installs and removes the wrappers; owns the spans and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = SpanStore()
        self.counts: Counter = Counter()
        self.stack = [-1]
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for counter, targets in COUNT_ONLY.items():
            for target in targets:
                self._patch(target, self._count_wrapper(_resolve(target)[2], counter))
        span_targets = [t for layer in SPAN_LAYERS for t in _public_targets(layer)]
        for target in span_targets + list(EXTRA_SPANS):
            fn = _resolve(target)[2]
            self._patch(target, self._span_wrapper(fn, span_name(target), target))
        self._patch(GRID, self._grid_wrapper(_resolve(GRID)[2]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, wrapper) -> None:
        owner, attr, original = _resolve(target)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it wherever hahnsolve imported it
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name: str, target: str):
        spans, stack, clock, counts = self.spans, self.stack, self.clock, self.counts
        name_id = spans.name_id(name)
        measure = _MEASURES.get(target)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            before = measure.before(counts, args, kwargs) if measure else None
            i = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(stack[-1])
            spans.op.append(self.op)
            spans.end.append(0)
            stack.append(i)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[i] = clock()
                stack.pop()
            if measure:
                measure.after(counts, before, result)
            return result

        return spanned

    def _grid_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def grid(*args, **kwargs):
            for candidate in fn(*args, **kwargs):
                counts["pseudo_direct.grid_candidates"] += 1
                yield candidate

        return grid


class _Measure:
    """Counts taken from a wrapped call's arguments and result."""

    def before(self, counts, args, kwargs):
        return None

    def after(self, counts, before, result) -> None:
        pass


class _TermsNormalised(_Measure):
    def before(self, counts, args, kwargs):
        terms = args[2] if len(args) > 2 else kwargs["terms"]
        counts["series.terms_normalised"] += len(terms)


class _CharsParsed(_Measure):
    def before(self, counts, args, kwargs):
        text = args[2] if len(args) > 2 else kwargs["text"]
        counts["parsing.chars_parsed"] += len(text)


class _Reports(_Measure):
    def after(self, counts, before, result):
        counts["fixtures.reports"] += len(result)
        counts["fixtures.samples_checked"] += sum(r.checked for r in result)


class _GridHits(_Measure):
    def before(self, counts, args, kwargs):
        return counts["pseudo_direct.grid_candidates"]

    def after(self, counts, before, result):
        if counts["pseudo_direct.grid_candidates"] > before:
            counts["pseudo_direct.grid_hits"] += 1


_MEASURES = {
    "series:make_series": _TermsNormalised(),
    "parsing:parse_series": _CharsParsed(),
    "fixtures:run_instance_checks": _Reports(),
    "pseudo_direct:_span_section": _GridHits(),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, by name, with its unit."""
    spans, counts = tracer.spans, tracer.counts
    calls = spans.calls()
    self_s = spans.layer_self_seconds()
    candidates = counts["pseudo_direct.grid_candidates"]

    def n(*names):
        return sum(calls[name] for name in names)

    def count(value):
        return (value, "count")

    def secs(layer):
        return (self_s.get(layer, 0.0), "s")

    return {
        "series.construct_calls": count(counts["series.construct"]),
        "series.terms_normalised": count(counts["series.terms_normalised"]),
        "series.self_s": secs("series"),
        "valuegroups.compare_calls": count(counts["valuegroups.compare"]),
        "fields.op_calls": count(counts["fields.op"]),
        "fields.is_zero_calls": count(counts["fields.is_zero"]),
        "solver.solves": count(n("solver.solve")),
        "solver.iterations": count(spans.children_named(("solver.solve",), SECTION_SPANS)),
        "solver.self_s": secs("solver"),
        "differential.derive_calls": count(n("differential.derive")),
        "differential.section_calls": count(n("differential.asymptotic_section")),
        "differential.self_s": secs("differential"),
        "pseudo_direct.section_calls": count(n("pseudo_direct.pseudo_direct_section")),
        "pseudo_direct.linear_solves": count(n("pseudo_direct._solve_linear")),
        "pseudo_direct.grid_candidates": count(candidates),
        "pseudo_direct.grid_hit_ratio": (
            counts["pseudo_direct.grid_hits"] / candidates if candidates else 0.0,
            "ratio",
        ),
        "pseudo_direct.witness_checks": count(n("pseudo_direct.check_pseudo_direct_witness")),
        "pseudo_direct.self_s": secs("pseudo_direct"),
        "ultrametric.ball_contains_calls": count(n("ultrametric.Ball.contains")),
        "ultrametric.nest_builds": count(n("ultrametric.Nest.__post_init__")),
        "ultrametric.self_s": secs("ultrametric"),
        "parsing.parse_calls": count(n("parsing.parse_series")),
        "parsing.chars_parsed": count(counts["parsing.chars_parsed"]),
        "parsing.format_calls": count(n("parsing.series_to_text")),
        "parsing.self_s": secs("parsing"),
        "cli.calls": count(n("cli.main")),
        "cli.self_s": secs("cli"),
        "fixtures.reports": count(counts["fixtures.reports"]),
        "fixtures.samples_checked": count(counts["fixtures.samples_checked"]),
        "sampling.series_drawn": count(n("sampling.random_series")),
        "sampling.self_s": secs("sampling"),
    }
