import math
import random

import numpy as np
import pytest

from mamab.environments import chain_env, gem_mining_env, lower_bound_env
from mamab.harness import (
    ExperimentSpec,
    first_optimal_pull,
    run_experiment,
    run_trial,
    summarize,
)
from mamab.policies import PolicyConfig


def _final(trace):
    return trace.checkpoints[-1][1]


def _trace_data(trace):
    # everything except measured wall time, which varies run to run
    return (trace.trial_seed, trace.checkpoints, trace.gaussian_draws,
            trace.argmax_ops)


def _summary_data(summary):
    return (summary.ts, summary.mean_cum_regret, summary.std_cum_regret,
            summary.mean_gaussian_draws, summary.num_trials)


class TestRunTrial:
    def test_single_round(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        trace = run_trial(env, cfg, 1, 5, 10)
        assert len(trace.checkpoints) == 1
        t, r = trace.checkpoints[0]
        assert t == 1
        assert r >= 0.0

    def test_checkpoint_grid(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        trace = run_trial(env, cfg, 250, 5, 100)
        assert [t for t, _ in trace.checkpoints] == [100, 200, 250]
        trace = run_trial(env, cfg, 300, 5, 100)
        assert [t for t, _ in trace.checkpoints] == [100, 200, 300]

    def test_monotone_cumulative_regret(self):
        for env, cfg in [
            (chain_env(5, 2, "bernoulli"), PolicyConfig("random")),
            (chain_env(5, 2, "poisson"),
             PolicyConfig("eps_mats", epsilon=0.5, c=2.0)),
            (gem_mining_env(4, random.Random(2)),
             PolicyConfig("ucb_baseline", ucb_range=1.0)),
        ]:
            trace = run_trial(env, cfg, 400, 11, 50)
            values = [r for _, r in trace.checkpoints]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[0] >= 0.0

    def test_deterministic_given_seed(self):
        env = chain_env(6, 2, "bernoulli")
        cfg = PolicyConfig("eps_mats", epsilon=0.3, c=3.0)
        a = run_trial(env, cfg, 300, 99, 50)
        b = run_trial(env, cfg, 300, 99, 50)
        assert a.checkpoints == b.checkpoints
        assert a.gaussian_draws == b.gaussian_draws
        assert a.argmax_ops == b.argmax_ops

    def test_random_policy_matches_expected_slope(self):
        # uniform play on the two-agent pair has mean gap 0.275 per round
        env = chain_env(2, 2, "bernoulli")
        cfg = PolicyConfig("random")
        finals = [_final(run_trial(env, cfg, 10_000, 100 + i, 10_000))
                  for i in range(50)]
        assert abs(np.mean(finals) - 2750.0) / 2750.0 < 0.05

    def test_eps_mats_beats_random_clearly(self):
        env = chain_env(2, 2, "bernoulli")
        cfg = PolicyConfig("eps_mats", epsilon=0.1, c=math.log(10_000))
        finals = [_final(run_trial(env, cfg, 10_000, 300 + i, 10_000))
                  for i in range(20)]
        assert np.mean(finals) <= 0.2 * 2750.0

    def test_work_counters_recorded(self):
        env = chain_env(4, 2, "bernoulli")
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        trace = run_trial(env, cfg, 100, 5, 100)
        assert trace.gaussian_draws == env.graph.num_local_arms * 100
        assert trace.argmax_ops > 0
        assert trace.wall_ns > 0

    def test_parameter_validation(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        with pytest.raises(ValueError):
            run_trial(env, cfg, 0, 1, 10)
        with pytest.raises(ValueError):
            run_trial(env, cfg, 10, 1, 0)


class TestGaussianDrawAccounting:
    def test_draw_fraction_within_binomial_band(self):
        env = chain_env(10, 2, "bernoulli")
        eps = 0.2
        cfg = PolicyConfig("eps_mats", epsilon=eps, c=1.0)
        horizon = 2000
        trace = run_trial(env, cfg, horizon, 17, horizon)
        total = env.graph.num_local_arms * horizon
        sigma = math.sqrt(total * eps * (1 - eps))
        assert abs(trace.gaussian_draws - eps * total) <= 4 * sigma


class TestRunExperiment:
    def test_reproducible_and_order_independent(self):
        env = chain_env(4, 2, "poisson")
        cfg = PolicyConfig("eps_mats", epsilon=0.5, c=1.0)
        spec = ExperimentSpec(env, cfg, horizon=200, trials=8, base_seed=42,
                              log_every=50)
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert _summary_data(first.summary) == _summary_data(second.summary)
        assert list(map(_trace_data, first.traces)) == list(map(_trace_data, second.traces))
        # aggregation over a permuted trace list gives the same summary
        shuffled = list(first.traces)
        random.Random(0).shuffle(shuffled)
        assert summarize(shuffled) == first.summary

    def test_trial_seeds_are_base_plus_index(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        spec = ExperimentSpec(env, cfg, horizon=50, trials=4, base_seed=10,
                              log_every=25)
        result = run_experiment(spec)
        assert [t.trial_seed for t in result.traces] == [10, 11, 12, 13]
        solo = run_trial(env, cfg, 50, 12, 25)
        assert _trace_data(result.traces[2]) == _trace_data(solo)

    def test_single_trial_summary(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        spec = ExperimentSpec(env, cfg, horizon=100, trials=1, base_seed=3,
                              log_every=20)
        result = run_experiment(spec)
        trace = result.traces[0]
        assert result.summary.mean_cum_regret == tuple(r for _, r in trace.checkpoints)
        assert all(s == 0.0 for s in result.summary.std_cum_regret)
        assert result.summary.num_trials == 1

    def test_mismatched_grids_rejected(self):
        env = chain_env(3, 2, "bernoulli")
        cfg = PolicyConfig("random")
        a = run_trial(env, cfg, 100, 1, 50)
        b = run_trial(env, cfg, 120, 2, 50)
        with pytest.raises(ValueError):
            summarize([a, b])


class TestFirstOptimalPull:
    def test_immediate_when_no_decoys(self):
        env = lower_bound_env(2, 0, 3.5, 5.0)
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        assert first_optimal_pull(env, cfg, 10, 0) == 1

    def test_none_when_never_pulled(self):
        # decoys at mean 3.5 lock in essentially immediately; a very short
        # horizon cannot reach the optimum
        env = lower_bound_env(3, 40, 3.5, 0.5)
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        hits = [first_optimal_pull(env, cfg, 3, seed) for seed in range(12)]
        assert None in hits

    def test_hit_independent_of_horizon(self):
        # selection at round t depends only on earlier rounds, so a hit
        # within the shorter horizon is the same round under the longer one
        env = lower_bound_env(1, 3, 3.5, 2.0)
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        hits = 0
        for seed in range(20):
            a = first_optimal_pull(env, cfg, 50, seed)
            if a is not None:
                hits += 1
                assert first_optimal_pull(env, cfg, 500, seed) == a
        assert hits > 0

    def test_requires_sampling_policy(self):
        env = lower_bound_env(1, 1, 3.5, 0.5)
        with pytest.raises(ValueError):
            first_optimal_pull(env, PolicyConfig("random"), 10, 0)

    def test_median_orders_with_group_count(self, lb_medians):
        # more groups delay the first optimal pull; censored trials count
        # as horizon + 1
        assert lb_medians[4] > lb_medians[1]


class TestSweepScaling:
    def test_gaussian_draws_linear_in_epsilon(self):
        env = chain_env(10, 2, "bernoulli")
        horizon, trials = 1000, 10
        for eps in (0.05, 0.25, 1.0):
            cfg = PolicyConfig("eps_mats", epsilon=eps, c=1.0)
            spec = ExperimentSpec(env, cfg, horizon, trials, 7, horizon)
            result = run_experiment(spec)
            expect = eps * env.graph.num_local_arms * horizon
            assert abs(result.summary.mean_gaussian_draws - expect) / expect < 0.02
