#!/usr/bin/env python3
"""hahnsolve benchmark: one workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Set-up (a fresh import, input generation from
the seed, warm-up) runs three times and ``setup_s`` is the median.  With
``--trace 0`` whole rounds of requests are timed one call at a time until
``--seconds`` of call time has accumulated, each answer is checked outside
the timed interval, and the end-to-end metrics are printed.  With
``--trace 1`` a fixed list of rounds runs once untraced and once with
wrappers around every layer's public functions, and the per-layer metrics
are printed; spans go to ``perfbench/out/``.

Times are reported at reference speed.  The machine this was tuned on runs
the same code up to twice as slowly in some stretches of seconds to minutes
(other tenants), so every timed stretch of about 0.2 s is bracketed by
``reference_ns``, a fixed pure-Python kernel of the benchmark's own, and its
times are multiplied by ``REF_NS / (mean of the two kernel times)``: a
millisecond reported is a millisecond on a machine that runs the kernel in
``REF_NS``.  The report also prints the unscaled ``ops_per_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer was correct, 1 when one was wrong, and 2 when the program
cannot be found or imported.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
MAX_OPS = 1 << 21  # latency slots, allocated up front so memory does not grow with speed
WALL_FACTOR = 3.0  # a run stops after this many --seconds of wall time regardless
REF_NS = 5_500_000  # the reference kernel's time that defines reference speed
REF_EVERY_NS = 200_000_000  # call time between two reference measurements


def _kernel() -> int:
    acc: dict = {}
    for i in range(1000):
        f = Fraction(i % 17 - 8, i % 5 + 1)
        acc[i % 97] = acc.get(i % 97, 0) + f * f
    order = functools.cmp_to_key(lambda a, b: (a[1] > b[1]) - (a[1] < b[1]))
    total = len(sorted(acc.items(), key=order))
    for i in range(20000):
        total += i * i % 7
    return total


def reference_ns() -> float:
    """Median of five runs of a fixed kernel (Fraction arithmetic, dicts, a
    comparator sort, an integer loop), timing the machine's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def fresh_import():
    """Import hahnsolve (and its CLI) from this checkout, discarding any
    modules an earlier set-up imported."""
    for name in [n for n in sys.modules if n == "hahnsolve" or n.startswith("hahnsolve.")]:
        del sys.modules[name]
    hs = importlib.import_module("hahnsolve")
    importlib.import_module("hahnsolve.cli")
    if Path(hs.__file__).resolve().parent != SRC / "hahnsolve":
        raise ImportError(f"hahnsolve imported from {hs.__file__}, not from {SRC}")
    return hs


def run_one(item):
    """One timed call; an exception is the call's answer, judged by the oracle."""
    t0 = time.perf_counter_ns()
    try:
        out = item.run()
    except Exception as exc:  # expected refusals are typed errors
        out = exc
    return out, time.perf_counter_ns() - t0


class Failures:
    """Counts wrong answers and keeps the first few for the report."""

    def __init__(self):
        self.count = 0
        self.examples: list[str] = []

    def judge(self, item, out) -> None:
        try:
            if item.check(out):
                return
            detail = (
                "".join(traceback.format_exception(out)).strip()
                if isinstance(out, BaseException)
                else repr(out)[:300]
            )
        except Exception:  # an answer the oracle cannot even read is wrong
            detail = f"{repr(out)[:300]}\n{traceback.format_exc().strip()}"
        self.count += 1
        if len(self.examples) < 3:
            self.examples.append(f"{type(item).__name__} {getattr(item, 'kind', '')}: {detail}")


def setup(workload_cls, seed: int, seconds: float):
    """Import, generate and materialise inputs, warm up; returns the workload."""
    hs = fresh_import()
    workload = workload_cls(hs, seed, seconds)
    failures = Failures()
    for item in workload.warmup:
        failures.judge(item, run_one(item)[0])
    if failures.count:
        raise RuntimeError("warm-up answer wrong: " + "; ".join(failures.examples))
    return workload


def nearest_rank(sorted_ns, pct: float) -> tuple[float, int]:
    """Value at percentile ``pct`` (nearest rank) and the samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_ns)))
    return sorted_ns[rank - 1], len(sorted_ns) - rank


def measure(workload, seconds: float):
    latencies = array("d", bytes(8 * MAX_OPS))
    failures = Failures()
    budget_ns = int(seconds * 1e9)
    wall_end = time.perf_counter() + WALL_FACTOR * seconds
    n = busy_ns = r = 0
    segment_start, segment_ns, ref_before = 0, 0, reference_ns()
    speeds, round_starts = [], [0]

    def close_segment():
        nonlocal segment_start, segment_ns, ref_before
        ref_after = reference_ns()
        speed = REF_NS / ((ref_before + ref_after) / 2)
        for i in range(segment_start, n):
            latencies[i] *= speed
        speeds.append(speed)
        segment_start, segment_ns, ref_before = n, 0, ref_after

    while busy_ns < budget_ns and time.perf_counter() < wall_end:
        rnd = workload.rounds[r % len(workload.rounds)]
        if n + len(rnd) > MAX_OPS:
            break
        for item in rnd:
            out, ns = run_one(item)
            latencies[n] = ns
            n += 1
            busy_ns += ns
            segment_ns += ns
            failures.judge(item, out)
            if segment_ns >= REF_EVERY_NS:
                close_segment()
        r += 1
        round_starts.append(n)
    if segment_start < n:
        close_segment()
    # every round has the same composition, so per-round throughputs are
    # comparable and their median shrugs off a burst that hits a few rounds
    round_rates = [
        (end - start) / (sum(latencies[start:end]) / 1e9)
        for start, end in zip(round_starts, round_starts[1:])
    ]
    done = sorted(latencies[:n])
    tail_ns, beyond = nearest_rank(done, workload.tail_pct)
    metrics = {
        "ops_per_s": (statistics.median(round_rates), "1/s"),
        "latency_p50_ms": (statistics.median(done) / 1e6, "ms"),
        "latency_tail_ms": (tail_ns / 1e6, "ms"),
        "correct_fraction": ((n - failures.count) / n, "ratio"),
    }
    notes = {
        "latency_p50_ms": f"unscaled ops_per_s {n / (busy_ns / 1e9):.6g}; speed factor "
        f"median {statistics.median(speeds):.3f}, range {min(speeds):.3f}..{max(speeds):.3f}",
        "latency_tail_ms": f"p{workload.tail_pct:g} of {n} ops, {beyond} beyond",
        "correct_fraction": f"failed_fraction {failures.count / n:.6f} ({failures.count}/{n})",
        "ops_per_s": f"median of {r} rounds"
        + (
            f", {r - len(workload.rounds)} beyond the distinct input pool"
            if r > len(workload.rounds) and workload.pool_rounds_per_second
            else ""
        ),
    }
    if beyond < 10:
        notes["latency_tail_ms"] += " (fewer than 10 beyond: tail is unreliable)"
    return metrics, notes, n, failures


def traced(workload, out_dir: Path, tag: str):
    from tracer import Tracer, layer_metrics

    items = [item for rnd in workload.rounds[: workload.trace_rounds] for item in rnd]
    failures = Failures()
    untraced_ns = 0
    for item in items:
        out, ns = run_one(item)
        untraced_ns += ns
        failures.judge(item, out)

    tracer = Tracer()
    outputs = []
    traced_ns = 0
    tracer.install()
    try:
        for k, item in enumerate(items):
            tracer.op = k
            out, ns = run_one(item)
            traced_ns += ns
            outputs.append(out)
    finally:
        tracer.remove()
    for item, out in zip(items, outputs):
        failures.judge(item, out)

    metrics = layer_metrics(tracer)
    untraced_rate = len(items) / (untraced_ns / 1e9)
    traced_rate = len(items) / (traced_ns / 1e9)
    metrics["tracing.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["tracing.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["tracing.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{tag}.csv.gz"
    tracer.spans.write_csv_gz(path)
    notes = {"tracing.overhead_ops_per_s": f"{len(tracer.spans)} spans written to {path}"}
    # both passes ran every item; each answer is counted once per pass
    return metrics, notes, 2 * len(items), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "hahnsolve" / "__init__.py").is_file():
        print(f"error: no hahnsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    workload_cls = WORKLOADS[args.workload]

    setup_s = []
    try:
        ref_before = reference_ns()
        for _ in range(SETUPS):
            workload = None
            gc.collect()
            t0 = time.perf_counter()
            workload = setup(workload_cls, args.seed, args.seconds)
            elapsed = time.perf_counter() - t0
            ref_after = reference_ns()
            setup_s.append(elapsed * REF_NS / ((ref_before + ref_after) / 2))
            ref_before = ref_after
    except ImportError as exc:
        print(f"error: cannot import hahnsolve: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()  # set-up objects are long-lived; keep them out of collections

    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        metrics, notes, attempted, failures = traced(workload, HERE / "out", tag)
    else:
        metrics, notes, attempted, failures = measure(workload, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        notes["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in setup_s)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name}: {value:.6g} {unit}{note}")
    for example in failures.examples:
        print(f"  WRONG: {example}")
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failures.count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
