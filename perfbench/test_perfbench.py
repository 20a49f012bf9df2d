"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from mamab import environments, harness  # noqa: E402
from mamab.harness import ExperimentResult, RegretTrace  # noqa: E402
from mamab.policies import PolicyConfig  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Experiment, Workload  # noqa: E402

TINY = Workload(
    "tiny", lambda: {"chain4": environments.chain_env(4, 2, "bernoulli")},
    (Experiment("eps", "chain4", workloads.eps_mats(0.5, 200), 200, 2),
     Experiment("random", "chain4", workloads.RANDOM, 200, 2)),
    spans=workloads.LOOP_SPANS | {"policies.sample_scores", "elimination.ve_argmax",
                                  "environments.regret_at", "elimination.brute_argmax"})


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_span_self_time_excludes_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 3

    def outer():
        clock.now += 10
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 1

    wrapped_leaf = tracer.wrap("leaf", leaf)
    tracer.wrap("harness", outer)()
    assert tracer.total_ns["harness"] == 17
    assert tracer.self_ns["harness"] == 11
    assert tracer.self_ns["leaf"] == tracer.total_ns["leaf"] == 6
    assert tracer.calls["leaf"] == 2
    assert tracer.coverage() == pytest.approx(6 / 17)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 5
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("x", boom)()
    assert tracer.self_ns["x"] == 5 and tracer._children == []


def test_iqr_share_matches_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25
    assert run.iqr_share(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert run.iqr_share([4.0] * 10) == 0.0


def test_corrupted_trace_counts_as_failed(monkeypatch):
    good = run_tiny()
    assert good.failed == 0 and good.units == 4

    def corrupted(spec):
        result = real(spec)
        first = result.traces[0]
        (t0, r0), *rest = first.checkpoints
        bad = RegretTrace(first.trial_seed, ((t0, -1.0), *rest), first.gaussian_draws,
                          first.argmax_ops, first.wall_ns)
        return ExperimentResult(result.summary, (bad,) + result.traces[1:])

    real = harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment", corrupted)
    res = run_tiny()
    assert res.failed == 2 and res.units == 4
    assert res.digest != good.digest


def test_raising_experiment_fails_all_its_units(monkeypatch):
    def boom(spec):
        raise RuntimeError("engine down")

    monkeypatch.setattr(harness, "run_experiment", boom)
    res = run_tiny()
    assert res.failed == res.units == 4


def test_check_trace_flags_wrong_counters():
    exp = Experiment("e", "chain4", PolicyConfig("eps_mats", epsilon=1.0, c=1.0), 10, 1)
    ok = RegretTrace(1, ((5, 0.5), (10, 0.5)), gaussian_draws=120, argmax_ops=90, wall_ns=1)
    assert workloads.check_trace(ok, exp, 12, 9) == []
    assert workloads.check_trace(
        RegretTrace(1, ((5, 0.5), (10, 0.5)), 119, 90, 1), exp, 12, 9)
    assert workloads.check_trace(
        RegretTrace(1, ((5, 0.5), (10, 0.5)), 120, 91, 1), exp, 12, 9)
    assert workloads.check_trace(
        RegretTrace(1, ((5, 0.5), (9, 0.5)), 120, 90, 1), exp, 12, 9)


def test_traced_pass_reproduces_untraced_and_restores_the_program():
    seeds = workloads.base_seeds(TINY, 7)
    plain = run_tiny(seeds)
    tracer = tracing.Tracer()
    originals = [getattr(owner, attr) for _, owner, attr in tracing.TARGETS]
    with tracing.installed(tracer):
        traced = workloads.run_pass(TINY, seeds, tracer.wrap("environments.build",
                                                            workloads.setup), setup_reps=1)
    assert [getattr(owner, attr) for _, owner, attr in tracing.TARGETS] == originals
    assert traced.digest == plain.digest and traced.failed == 0
    assert tracing.self_check(tracer, TINY.spans) == []
    layers = tracing.layer_metrics(tracer, TINY, traced)
    assert layers["harness.rounds"] == 800
    assert layers["elimination.ve_calls"] == 400
    assert layers["policies.gaussian_draws"] == traced.gaussian_draws
    assert layers["environments.reward_draws"] == 800 * 3


def test_self_check_flags_a_span_that_saw_no_calls():
    tracer = tracing.Tracer()
    problems = tracing.self_check(tracer, frozenset({"harness", "elimination.ve_argmax"}))
    assert "span elimination.ve_argmax saw no calls" in problems


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def run_tiny(seeds=(11, 12)):
    return workloads.run_pass(TINY, list(seeds), setup_reps=1)
