"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not tuned at runtime; the
heavy benchmark runs come from session fixtures shared with the trend
tests (see conftest.py for horizons, trial counts and seeds)."""

import math
import random
import time

import numpy as np

from mamab.cli import main
from mamab.draws import TrialDraws
from mamab.elimination import brute_argmax, joint_totals, ve_argmax
from mamab.environments import (
    chain_env,
    gem_mining_env,
    load_table_env,
    lower_bound_env,
    sample_rewards,
)
from mamab.harness import run_trial
from mamab.hypergraph import Hypergraph
from mamab.policies import LocalArmStats, PolicyConfig, select_arm, update_stats

from conftest import SWEEP_EPSILONS, SWEEP_HORIZON, SWEEP_TRIALS


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def random_instance(rng):
    """m <= 10 agents, arm counts <= 3, 1..9 covering groups of size <= 3."""
    m = rng.randint(1, 10)
    arm_counts = [rng.randint(1, 3) for _ in range(m)]
    agents = list(range(m))
    rng.shuffle(agents)
    groups = []
    i = 0
    while i < m:
        size = min(rng.randint(2, 3), m - i) if m - i > 1 else 1
        groups.append(agents[i:i + size])
        i += size
    while len(groups) < 9 and rng.random() < 0.4:
        size = rng.randint(1, min(3, m))
        groups.append(rng.sample(range(m), size))
    return Hypergraph(m, arm_counts, groups)


def test_criterion_1_oracle_equivalence():
    rng = random.Random(424242)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(1000):
        h = random_instance(rng)
        scores = [rng.random() for _ in range(h.num_local_arms)]
        ve = ve_argmax(h, scores)
        ref = brute_argmax(h, scores)
        assert ve.argmax == ref.argmax, (h, scores)
        worst = max(worst, abs(ve.value - ref.value))
        assert abs(ve.value - ref.value) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 1000 and elapsed < 60.0
    assert report(1, "elimination matches brute force on 1000 random instances",
                  ok, f"max value gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_chain_complexity_witness():
    ratios = {}
    for m in (4, 8, 16, 32, 64):
        h = Hypergraph(m, [2] * m,
                             [[i, i + 1] for i in range(m - 1)])
        res = ve_argmax(h, [0.0] * h.num_local_arms)
        ratios[m] = res.op_count / h.num_local_arms
    bounded = all(r <= 4.0 for r in ratios.values())
    spread = (max(ratios.values()) - min(ratios.values())) / min(ratios.values())
    ok = bounded and spread < 0.10
    assert report(2, "chain op-count stays proportional to the local-arm count",
                  ok, f"ratios {sorted(set(round(r, 4) for r in ratios.values()))}, "
                      f"spread {spread:.2%}")


def _final_stats(result):
    finals = [trace.checkpoints[-1][1] for trace in result.traces]
    return float(np.mean(finals)), float(np.std(finals, ddof=1))


def test_criterion_3_epsilon_sweep_trend(bernoulli_sweep):
    _env, results, elapsed = bernoulli_sweep
    n = SWEEP_TRIALS
    stats = {eps: _final_stats(results[eps]) for eps in SWEEP_EPSILONS}
    full, tiny = max(SWEEP_EPSILONS), min(SWEEP_EPSILONS)
    # the sweet spot sits near epsilon * c ~ 0.1 (see conftest.py), so the
    # criterion asserts the U-shape over the grid rather than a fixed epsilon
    best = min((eps for eps in SWEEP_EPSILONS if tiny < eps < full),
               key=lambda eps: stats[eps][0])
    mean_best, std_best = stats[best]
    mean_full, std_full = stats[full]
    mean_tiny, std_tiny = stats[tiny]
    se_a = math.sqrt(std_full ** 2 / n + std_best ** 2 / n)
    se_b = math.sqrt(std_best ** 2 / n + std_tiny ** 2 / n)
    runtime = elapsed[1.0] + elapsed[0.1] + elapsed[0.01]
    moderate_beats_full = mean_full - mean_best > se_a
    tiny_underexplores = mean_tiny - mean_best > se_b
    ok = moderate_beats_full and tiny_underexplores and runtime < 300.0
    finals = ", ".join(f"e={eps} {stats[eps][0]:.0f}" for eps in SWEEP_EPSILONS)
    assert report(
        3, "epsilon sweep reproduces the mid-epsilon sweet spot", ok,
        f"final regret {finals}; interior minimum e={best}; "
        f"pooled se {se_a:.1f}/{se_b:.1f}; {runtime:.0f}s")


def test_criterion_4_baseline_ordering(bernoulli_sweep, bernoulli_random):
    env, results, _ = bernoulli_sweep
    mean_eps, _ = _final_stats(results[0.1])
    mean_mats, _ = _final_stats(results[1.0])
    mean_rand, _ = _final_stats(bernoulli_random)
    totals = joint_totals(env.graph, list(env.means))
    avg_gap = float(totals.max() - totals.mean())
    expected_rand = avg_gap * SWEEP_HORIZON
    ordering = mean_eps < mean_mats < mean_rand
    slope_ok = abs(mean_rand - expected_rand) / expected_rand < 0.05
    ok = ordering and slope_ok
    assert report(
        4, "policy ordering eps_mats < full sampling < random, random on the "
           "uniform-play slope", ok,
        f"{mean_eps:.0f} < {mean_mats:.0f} < {mean_rand:.0f}, "
        f"slope {expected_rand:.0f}")


def test_criterion_5_sublinear_growth(bernoulli_sweep):
    _env, results, _ = bernoulli_sweep
    summary = results[0.1].summary
    ts = summary.ts
    assert SWEEP_HORIZON in ts and SWEEP_HORIZON // 2 in ts
    r_half = summary.mean_cum_regret[ts.index(SWEEP_HORIZON // 2)]
    r_full = summary.mean_cum_regret[ts.index(SWEEP_HORIZON)]
    ratio = r_full / r_half
    ok = ratio < 1.8
    assert report(5, "doubling the horizon grows regret sublinearly", ok,
                  f"R(T)/R(T/2) = {ratio:.3f}")


def test_criterion_6_compute_scaling(bernoulli_sweep):
    env, results, _ = bernoulli_sweep
    a_loc = env.graph.num_local_arms
    draw_ok = True
    details = []
    for eps in (0.05, 0.1, 0.5, 1.0):
        got = results[eps].summary.mean_gaussian_draws
        expect = eps * a_loc * SWEEP_HORIZON
        rel = abs(got - expect) / expect
        details.append(f"e={eps}: {rel:.3%}")
        draw_ok = draw_ok and rel < 0.02
    walls = [results[eps].summary.mean_wall_ns for eps in (0.05, 0.1, 0.5, 1.0)]
    wall_ok = all(b >= a for a, b in zip(walls, walls[1:]))
    ok = draw_ok and wall_ok
    assert report(6, "gaussian draws track epsilon * A_loc * T and wall time "
                     "is monotone in epsilon", ok,
                  "; ".join(details) + f"; walls {['%.2f' % (w / 1e9) for w in walls]}s")


def test_criterion_7_gem_mining(gem_runs):
    _env, eps_res, rnd_res = gem_runs
    mean_eps, _ = _final_stats(eps_res)
    mean_rnd, _ = _final_stats(rnd_res)
    ok = mean_eps < 0.5 * mean_rnd
    assert report(7, "gem mining: posterior sampling beats half of random's "
                     "regret", ok, f"{mean_eps:.0f} vs {mean_rnd:.0f}")


def test_criterion_8_group_count_delays_first_optimal_pull(lb_medians):
    med1 = lb_medians[1]
    med2 = lb_medians[2]
    med4 = lb_medians[4]
    # After lock-in on decoys the optimum wins the sampled argmax with
    # probability about P(N(0, rho) > 3.5 rho) per round: 3.7e-7 at rho=2
    # and 1.3e-12 at rho=4. Both medians are therefore censored at
    # horizon + 1 in almost every run, and a tie there says nothing against
    # the trend, so the 2 -> 4 step is non-strict.
    ok = med1 < med2 <= med4
    assert report(8, "restricted-action instance: median first optimal pull "
                     "grows with the group count", ok,
                  f"median rho=1 {med1:.0f}, rho=2 {med2:.0f}, "
                  f"rho=4 {med4:.0f} "
                  f"(censored runs count as {SWEEP_HORIZON + 1})")


def test_criterion_9_byte_identical_reruns(tmp_path):
    base = ("--set env=gem_mining --set villages=5 --set env_seed=42 "
            "--set policy=eps_mats --set epsilon=0.2 --set T=2000 "
            "--set trials=5 --set seed=11 --set log_every=250").split()
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run"] + base + ["--out", out_a]) == 0
    assert main(["run"] + base + ["--out", out_b]) == 0
    same = True
    for suffix in (".trials.csv", ".summary.csv"):
        with open(out_a + suffix, "rb") as fa, open(out_b + suffix, "rb") as fb:
            same = same and fa.read() == fb.read()
    assert report(9, "identical config and seed give byte-identical CSVs", same)


def test_criterion_10_statistics_invariants():
    horizon = 1000
    envs = [
        ("bernoulli d=2", chain_env(8, 2, "bernoulli")),
        ("poisson d=2", chain_env(8, 2, "poisson")),
        ("bernoulli d=3", chain_env(7, 3, "bernoulli")),
        ("gem mining", gem_mining_env(5, random.Random(42))),
        ("lower bound", lower_bound_env(2, 8, 3.5, 0.5)),
        ("table", load_table_env("sample_configs/table_env_example.txt")),
    ]
    ok = True
    for label, env in envs:
        graph = env.graph
        cfg = PolicyConfig("eps_mats", epsilon=0.3, c=2.0)
        rng = TrialDraws(97)
        stats = LocalArmStats.fresh(graph.num_local_arms)
        history = [[] for _ in range(graph.num_local_arms)]
        for t in range(1, horizon + 1):
            arms = select_arm(graph, stats, cfg, t, rng,
                              candidates=env.candidates)
            rewards = sample_rewards(env, arms, rng)
            for j, r in zip(graph.flat_indices(arms), rewards):
                history[j].append(r)
            update_stats(stats, graph, arms, rewards)
        # incremental means agree with batch means over the same history
        for j in range(graph.num_local_arms):
            batch = float(np.mean(history[j])) if history[j] else 0.0
            if abs(stats.mu_hat[j] - batch) > 1e-9:
                ok = report(10, f"incremental mean drifted on {label}", False)
            if stats.n[j] != len(history[j]):
                ok = report(10, f"pull count wrong on {label}", False)
        # exactly one pull per group per round
        for e in range(graph.num_groups):
            lo = graph.local_offsets[e]
            if sum(stats.n[lo:lo + graph.group_sizes[e]]) != horizon:
                ok = report(10, f"pull conservation broken on {label}", False)
        # regret traces are non-negative and non-decreasing
        trace = run_trial(env, cfg, horizon, 31, 100)
        values = [r for _, r in trace.checkpoints]
        if not all(v >= 0 for v in values):
            ok = report(10, f"negative cumulative regret on {label}", False)
        if not all(b >= a for a, b in zip(values, values[1:])):
            ok = report(10, f"non-monotone regret trace on {label}", False)
    assert report(10, "incremental means, pull conservation and monotone "
                      "traces hold on every environment", ok)
