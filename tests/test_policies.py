import dataclasses
import math
import random

import numpy as np
import pytest

from mamab import draws
from mamab.draws import TrialDraws
from mamab.hypergraph import Hypergraph
from mamab.policies import (
    LocalArmStats,
    PolicyConfig,
    WorkTally,
    sample_scores,
    select_arm,
    ucb_scores,
    update_stats,
)

from test_hypergraph import chain_groups


class TestPolicyConfig:
    def test_valid_configs(self):
        PolicyConfig("eps_mats", epsilon=0.1, c=1.0)
        PolicyConfig("eps_mats", epsilon=1.0, c=9.2)
        PolicyConfig("ucb_baseline", ucb_range=1.0)
        PolicyConfig("random")

    def test_bad_epsilon(self):
        for epsilon in (1.5, -0.1, 0.0, math.nan):
            with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
                PolicyConfig("eps_mats", epsilon=epsilon, c=1.0)

    def test_bad_c(self):
        for c in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PolicyConfig("eps_mats", epsilon=0.5, c=c)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            PolicyConfig("thompson")

    def test_ucb_needs_range(self):
        with pytest.raises(ValueError):
            PolicyConfig("ucb_baseline")
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PolicyConfig("ucb_baseline", ucb_range=scale)

    def test_frozen_after_checks(self):
        # the checks run once, at construction, so no field may change after
        cfg = PolicyConfig("eps_mats", epsilon=0.1, c=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epsilon = 5
        assert cfg.epsilon == 0.1


class TestSampleScores:
    def test_unpulled_arm_samples_standard_normal(self):
        # n=0, mu=0, c=1 and epsilon=1 puts every draw on Normal(0, 1)
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        rng = TrialDraws(42)
        stats = LocalArmStats.fresh(1)
        draws = [sample_scores(stats, cfg, rng)[0] for _ in range(100_000)]
        assert abs(np.mean(draws)) < 0.02
        assert abs(np.var(draws) - 1.0) < 0.05

    def test_posterior_tightens_with_pulls(self):
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=2.0)
        rng = TrialDraws(9)
        stats = LocalArmStats(n=[49], mu_hat=[3.0])
        draws = [sample_scores(stats, cfg, rng)[0] for _ in range(50_000)]
        assert abs(np.mean(draws) - 3.0) < 0.01
        assert abs(np.var(draws) - 2.0 / 50.0) < 0.005

    def test_gate_draw_total_matches_epsilon(self):
        cfg = PolicyConfig("eps_mats", epsilon=0.1, c=1.0)
        rng = TrialDraws(7)
        stats = LocalArmStats.fresh(36)
        tally = WorkTally()
        rounds = 10_000
        for _ in range(rounds):
            sample_scores(stats, cfg, rng, tally)
        expect = 0.1 * 36 * rounds
        assert abs(tally.gaussian_draws - expect) / expect < 0.02

    def test_epsilon_one_always_samples(self):
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        rng = TrialDraws(3)
        stats = LocalArmStats.fresh(20)
        tally = WorkTally()
        for _ in range(200):
            sample_scores(stats, cfg, rng, tally)
        assert tally.gaussian_draws == 20 * 200

    def test_per_arm_gate_counts_binomial(self):
        # each arm's gate passes Binomial(rounds, eps) times; use a 4-sigma band
        eps = 0.3
        rounds = 5000
        cfg = PolicyConfig("eps_mats", epsilon=eps, c=1.0)
        rng = TrialDraws(11)
        stats = LocalArmStats(n=[5] * 8, mu_hat=[0.0] * 8)
        hits = [0] * 8
        for _ in range(rounds):
            scores = sample_scores(stats, cfg, rng)
            for j, s in enumerate(scores):
                if s != 0.0:
                    hits[j] += 1
        sigma = math.sqrt(rounds * eps * (1 - eps))
        for h in hits:
            assert abs(h - rounds * eps) <= 4 * sigma

    def test_draw_order_documented(self):
        # replaying the trial's addresses by hand must reproduce the scores
        # exactly: gate passes at geometric gaps on the slot axis, pass k
        # scored with normal k
        eps = 0.4
        cfg = PolicyConfig("eps_mats", epsilon=eps, c=2.0)
        stats = LocalArmStats(n=[0, 2, 5, 1], mu_hat=[0.1, -0.2, 0.7, 0.0])
        rng = TrialDraws(123)
        got = [sample_scores(stats, cfg, rng) for _ in range(50)]
        gap_u = draws.uniforms(draws.stream_key(123, draws.GATES), 0, 200).tolist()
        slots, slot = [], -1
        for u in gap_u:
            slot += math.floor(math.log1p(-u) / math.log1p(-eps)) + 1
            slots.append(slot)
        z = draws.normal_array(draws.stream_key(123, draws.SCORES), 0, 200).tolist()
        expected = [list(stats.mu_hat) for _ in range(50)]
        for k, slot in enumerate(s for s in slots if s < 200):
            t, j = divmod(slot, 4)
            expected[t][j] = stats.mu_hat[j] + math.sqrt(2.0 / (stats.n[j] + 1)) * z[k]
        assert got == expected
        assert got != [list(stats.mu_hat)] * 50


class TestUcbScores:
    def test_first_round_degenerate(self):
        stats = LocalArmStats.fresh(1)
        cfg = PolicyConfig("ucb_baseline", ucb_range=1.0)
        assert ucb_scores(stats, 1, cfg) == [0.0]

    def test_formula_value(self):
        stats = LocalArmStats(n=[7] + [0] * 35, mu_hat=[0.5] + [0.0] * 35)
        cfg = PolicyConfig("ucb_baseline", ucb_range=1.0)
        got = ucb_scores(stats, 100, cfg)[0]
        expected = 0.5 + math.sqrt(math.log(100 * 36) / (2 * 8))
        assert abs(got - expected) < 1e-12
        assert abs(got - 1.2153972) < 1e-6

    def test_bonus_decreases_with_pulls(self):
        cfg = PolicyConfig("ucb_baseline", ucb_range=2.0)
        prev = math.inf
        for n in range(0, 50, 5):
            stats = LocalArmStats(n=[n], mu_hat=[0.0])
            score = ucb_scores(stats, 1000, cfg)[0]
            assert score < prev
            prev = score

    def test_round_index_validated(self):
        stats = LocalArmStats.fresh(2)
        cfg = PolicyConfig("ucb_baseline", ucb_range=1.0)
        with pytest.raises(ValueError):
            ucb_scores(stats, 0, cfg)

    @pytest.mark.parametrize("wide", [False, True])
    def test_scores_give_the_closed_formula_bits_for_any_count(self, wide):
        # halving ln(t * A_loc) once, then dividing by n + 1, rounds once
        # like ln(t * A_loc) / (2 (n + 1)): hand-built counts up to 10**6
        rng = random.Random(17)
        for scale in (0.1, 1.0, 1.5, 40.0):
            cfg = PolicyConfig("ucb_baseline", ucb_range=scale)
            for _ in range(25):
                n = [rng.choice([0, 1, 2, 7, 999_999, 10 ** 6, rng.randrange(10 ** 6 + 1)])
                     for _ in range(rng.randint(1, 12))]
                mu = [rng.uniform(-3.0, 5.0) for _ in n]
                stats = (LocalArmStats(n=np.array(n), mu_hat=np.array(mu)) if wide
                         else LocalArmStats(n=n, mu_hat=mu))
                for t in (1, 2, 3, 100, 10 ** 4, 10 ** 6, 2 ** 40):
                    log_term = math.log(t * len(n))
                    closed = [(m + scale * math.sqrt(log_term / (2.0 * (nj + 1)))).hex()
                              for m, nj in zip(mu, n)]
                    got = ucb_scores(stats, t, cfg)
                    assert [x.hex() for x in (got.tolist() if wide else got)] == closed

    def test_negative_count_rejected(self):
        # a count of -1 would make the bonus's divisor n + 1 zero
        with pytest.raises(ValueError, match="pull counts"):
            LocalArmStats(n=[3, -1], mu_hat=[0.0, 0.0])

    @pytest.mark.parametrize("n, mu_hat", [
        ([0, 1], np.zeros(2)),                 # list counts, array means
        (np.zeros(2, dtype=np.int64), [0.0, 0.0]),
        ([0, 1], [0.0]),                       # two counts, one mean
        (np.zeros(3, dtype=np.int64), np.zeros(2)),
    ])
    def test_counts_and_means_must_agree(self, n, mu_hat):
        # mixed layouts failed with AttributeError, and unequal lengths
        # built stats whose UCB row had one score for two counts
        with pytest.raises(ValueError, match="differ in layout or length"):
            LocalArmStats(n=n, mu_hat=mu_hat)


class TestSelectArm:
    def test_random_uniform_over_joint_space(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        cfg = PolicyConfig("random")
        rng = TrialDraws(5)
        counts = {}
        rounds = 100_000
        for _ in range(rounds):
            a = select_arm(h, stats, cfg, 1, rng)
            counts[a] = counts.get(a, 0) + 1
        for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert abs(counts[a] / rounds - 0.25) < 0.01

    def test_fresh_stats_returns_valid_assignment(self):
        h = Hypergraph(3, [2, 3, 2], [[0, 1], [1, 2]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        a = select_arm(h, stats, cfg, 1, TrialDraws(2))
        assert len(a) == 3
        for arm, k in zip(a, h.arm_counts):
            assert 0 <= arm < k

    def test_symmetric_group_selected_uniformly_at_t1(self):
        # with no data every local arm is exchangeable, so each of the four
        # local arms of a single binary pair should win equally often
        h = Hypergraph(2, [2, 2], [[0, 1]])
        cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
        rng = TrialDraws(99)
        rounds = 4000
        counts = {}
        for _ in range(rounds):
            stats = LocalArmStats.fresh(h.num_local_arms)
            a = select_arm(h, stats, cfg, 1, rng)
            counts[a] = counts.get(a, 0) + 1
        sigma = math.sqrt(rounds * 0.25 * 0.75)
        for a in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert abs(counts.get(a, 0) - rounds / 4) <= 4 * sigma

    def test_ucb_selects_untried_arm_eventually(self):
        h = Hypergraph(2, [2, 2], [[0], [1]])
        stats = LocalArmStats(n=[4, 0, 4, 0], mu_hat=[0.1, 0.0, 0.1, 0.0])
        cfg = PolicyConfig("ucb_baseline", ucb_range=1.0)
        assert select_arm(h, stats, cfg, 50, TrialDraws(1)) == (1, 1)


class TestUpdateStats:
    def test_first_update(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        update_stats(stats, h, (0, 1), [0.7])
        j = h.flat_indices((0, 1))[0]
        assert stats.mu_hat[j] == 0.7
        assert stats.n[j] == 1

    def test_running_mean(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        for r in (1.0, 0.0, 1.0):
            update_stats(stats, h, (1, 0), [r])
        j = h.flat_indices((1, 0))[0]
        assert abs(stats.mu_hat[j] - 2.0 / 3.0) < 1e-12
        assert stats.n[j] == 3

    def test_untouched_entries_bitwise_unchanged(self):
        h = Hypergraph(3, [2] * 3, chain_groups(3, 2))
        stats = LocalArmStats.fresh(h.num_local_arms)
        rng = random.Random(4)
        for _ in range(20):
            arms = tuple(rng.randrange(2) for _ in range(3))
            update_stats(stats, h, arms, [rng.random(), rng.random()])
        before_n = list(stats.n)
        before_mu = list(stats.mu_hat)
        arms = (1, 0, 1)
        update_stats(stats, h, arms, [0.25, 0.5])
        touched = set(h.flat_indices(arms))
        assert len(touched) == h.num_groups
        for j in range(h.num_local_arms):
            if j in touched:
                assert stats.n[j] == before_n[j] + 1
            else:
                assert stats.n[j] == before_n[j]
                assert stats.mu_hat[j] == before_mu[j]

    def test_reward_length_checked(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        with pytest.raises(ValueError):
            update_stats(stats, h, (0, 0), [0.1, 0.2])

    @pytest.mark.parametrize("arms", [(0, 2), (-1, 1), (1, 1, 7), (1,)])
    def test_invalid_arms_rejected_without_change(self, arms):
        # (0, 2) and (-1, 1) would otherwise land on the flat indices of
        # (1, 0) and (1, 1); (1, 1, 7) names an agent the graph lacks
        h = Hypergraph(2, [2, 2], [[0, 1]])
        stats = LocalArmStats.fresh(h.num_local_arms)
        update_stats(stats, h, (1, 0), [0.5])
        before = (list(stats.n), list(stats.mu_hat))
        with pytest.raises(ValueError, match="assignment has length|out of range"):
            update_stats(stats, h, arms, [1.0])
        assert (stats.n, stats.mu_hat) == before

    def test_incremental_matches_batch_mean(self):
        h = Hypergraph(4, [2] * 4, chain_groups(4, 2))
        stats = LocalArmStats.fresh(h.num_local_arms)
        rng = random.Random(8)
        history = {j: [] for j in range(h.num_local_arms)}
        for _ in range(10_000):
            arms = tuple(rng.randrange(2) for _ in range(4))
            rewards = [rng.random() for _ in range(h.num_groups)]
            for j, r in zip(h.flat_indices(arms), rewards):
                history[j].append(r)
            update_stats(stats, h, arms, rewards)
        for j in range(h.num_local_arms):
            if history[j]:
                assert abs(stats.mu_hat[j] - np.mean(history[j])) < 1e-9
            else:
                assert stats.mu_hat[j] == 0.0
            assert stats.n[j] == len(history[j])

    def test_pull_conservation_per_group(self):
        h = Hypergraph(5, [2] * 5, chain_groups(5, 2))
        stats = LocalArmStats.fresh(h.num_local_arms)
        rng = random.Random(21)
        rounds = 500
        for _ in range(rounds):
            arms = tuple(rng.randrange(2) for _ in range(5))
            update_stats(stats, h, arms, [0.0] * h.num_groups)
        for e in range(h.num_groups):
            lo = h.local_offsets[e]
            assert sum(stats.n[lo:lo + h.group_sizes[e]]) == rounds
