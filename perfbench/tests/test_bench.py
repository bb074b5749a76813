"""Tests of the benchmark itself: inputs, tracing arithmetic, the oracle.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import inspect
import json

import pytest

import run
import tracer
import workloads


@pytest.fixture(scope="module")
def hs():
    return run.fresh_import()


def small(workload_cls, hs, rounds=1):
    """A workload whose rounds are its warm-up items, so runs stay short."""
    workload = workload_cls(hs, seed=3, seconds=1)
    workload.rounds = [workload.warmup] * rounds
    workload.trace_rounds = rounds
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    cls = workloads.WORKLOADS[name]
    first = json.dumps(cls.generate(7, 3)).encode()
    assert first == json.dumps(cls.generate(7, 3)).encode()
    assert first != json.dumps(cls.generate(8, 3)).encode()


def test_self_time_on_synthetic_span_tree():
    spans = tracer.SpanStore()
    a = spans.add("solver.solve", 0, 100, -1, 0)
    b = spans.add("series.make_series", 10, 40, a, 0)
    c = spans.add("differential.derive", 50, 90, a, 0)
    spans.add("series.make_series", 60, 70, c, 0)
    spans.add("series.Series.add", 200, 205, -1, 1)
    assert spans.self_ns() == [30, 30, 30, 10, 5]
    assert spans.layer_self_seconds() == {
        "solver": 30e-9,
        "series": 45e-9,
        "differential": 30e-9,
    }
    assert spans.calls()["series.make_series"] == 2
    assert spans.children_named(("solver.solve",), ("differential.derive",)) == 1
    assert b == 1


def _snapshot():
    """Every attribute of every hahnsolve module and of the classes they define."""
    snap = {}
    for mod in tracer._package_modules():
        snap[mod.__name__] = dict(vars(mod))
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                snap[f"{mod.__name__}:{name}"] = dict(vars(obj))
    return snap


def test_install_then_remove_restores_every_attribute(hs):
    import hahnsolve.differential as differential
    import hahnsolve.series as series

    before = _snapshot()
    original = series.make_series
    t = tracer.Tracer()
    t.install()
    try:
        # rebound where it was imported, not only where it was defined
        assert differential.make_series is series.make_series is not original
        assert hs.make_series is series.make_series
        assert series.Series.add is not before["hahnsolve.series:Series"]["add"]
    finally:
        t.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, (owner, changed)


def test_traced_counts_repeat_exactly(hs, tmp_path):
    for cls in workloads.WORKLOADS.values():
        runs = [
            run.traced(small(cls, hs), tmp_path, f"{cls.name}-{k}") for k in range(2)
        ]
        counts = [
            {k: v for k, (v, unit) in metrics.items() if unit == "count"}
            for metrics, _, _, _ in runs
        ]
        assert counts[0] == counts[1], cls.name
        assert all(failures.count == 0 for _, _, _, failures in runs), cls.name
        assert (tmp_path / f"spans-{cls.name}-0.csv.gz").stat().st_size > 0


def test_perturbed_solution_counts_as_failure(hs, monkeypatch):
    workload = small(workloads.IntegrateLong, hs)
    metrics, _, _, failures = run.measure(workload, 0.05)
    assert failures.count == 0 and metrics["correct_fraction"][0] == 1.0

    honest = hs.integrate

    def perturbed(dspec, b, *args, **kwargs):
        result = honest(dspec, b, *args, **kwargs)
        extra = dspec.space.monomial(1, 1000)
        return hs.SolveResult(
            result.solution.add(extra), result.residual_value, result.iterations,
            result.exact, result.trace,
        )

    monkeypatch.setattr(hs, "integrate", perturbed)
    metrics, _, _, failures = run.measure(workload, 0.05)
    # only the expected Obstruction refusals stay correct
    refusal_share = sum(item.expect == "obstruction" for item in workload.warmup) / len(
        workload.warmup
    )
    assert failures.count > 0
    assert metrics["correct_fraction"][0] == pytest.approx(refusal_share)


def test_oracle_rejects_wrong_refusal_and_unreadable_answers(hs):
    workload = small(workloads.DecomposeMixed, hs)
    refused = [item for item in workload.warmup if item.expect == "refuse"]
    assert refused
    failures = run.Failures()
    failures.judge(refused[0], hs.Obstruction(1))  # a refusal of the wrong type
    failures.judge(refused[0], run.run_one(refused[0])[0])
    assert failures.count == 1
    small_item = small(workloads.InteractiveSmall, hs).warmup[0]
    failures.judge(small_item, object())  # the oracle cannot read it
    assert failures.count == 2


def test_nearest_rank_reports_samples_beyond():
    values = list(range(1, 201))
    assert run.nearest_rank(values, 95.0) == (190, 10)
    assert run.nearest_rank(values, 50.0) == (100, 100)


def test_instance_oracle_accepts_only_genuine_extra_failures(hs):
    workload = small(workloads.CheckSuite, hs)
    order = next(i for i in workload.warmup if getattr(i, "instance", None)
                 and i.instance.name == "broken-order")
    order.seed, order.samples = 2016045923, 60  # draws a pair that collapses t^2 - t^3
    out = order.run()
    assert {r.name for r in out if not r.ok} == {"value_map_order", "value_monotonicity"}
    assert order.check(out)
    progress = next(i for i in workload.warmup if getattr(i, "instance", None)
                    and i.instance.name == "broken-progress")
    out = progress.run()
    assert progress.check(out)
    wrong = [hs.CheckReport(r.name, r.checked, ("forged",)) for r in out]
    assert not progress.check(wrong)  # every check failing is not the target alone
