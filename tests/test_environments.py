import itertools
import math
import random

import numpy as np
import pytest

from mamab import draws
from mamab.draws import TrialDraws
from mamab.elimination import EliminationResult, brute_argmax
from mamab.environments import (
    BERNOULLI_PAIR_TABLE,
    POISSON_PAIR_TABLE,
    POISSON_MAX_MEAN,
    InvalidEnvironmentError,
    RestrictedCandidates,
    chain_env,
    decoys_per_group,
    gem_mining_env,
    load_table_env,
    lower_bound_env,
    make_environment,
    pseudo_regret,
    sample_rewards,
)
from mamab.hypergraph import Hypergraph, enumerate_joint


class TestChainEnvironments:
    def test_bernoulli_m10_optimum(self):
        env = chain_env(10, 2, "bernoulli")
        assert env.optimal_assignment == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
        assert env.optimal_value == 9.0
        # independent confirmation by explicit enumeration of all 1024 arms
        best = max(enumerate_joint(env.graph),
                   key=lambda a: sum(env.means[j] for j in env.graph.flat_indices(a)))
        assert best == env.optimal_assignment

    def test_alternating_optimum_across_sizes(self):
        for m in range(2, 13):
            env = chain_env(m, 2, "bernoulli")
            expected = tuple(i % 2 for i in range(m))
            assert env.optimal_assignment == expected
            assert abs(env.optimal_value - (m - 1) * 1.0) < 1e-12

    def test_poisson_single_group(self):
        env = chain_env(2, 2, "poisson")
        assert env.optimal_assignment == (0, 1)
        assert abs(env.optimal_value - 0.3) < 1e-12

    def test_d3_all_ones_optimum(self):
        env = chain_env(10, 3, "bernoulli")
        assert env.optimal_assignment == (1,) * 10
        assert abs(env.optimal_value - 8.0) < 1e-12

    def test_d3_rotation_preserves_optimum_small(self):
        env = chain_env(5, 3, "poisson")
        assert env.optimal_assignment == (1,) * 5
        best = max(enumerate_joint(env.graph),
                   key=lambda a: sum(env.means[j] for j in env.graph.flat_indices(a)))
        assert best == (1,) * 5

    def test_even_group_table_direct(self):
        env = chain_env(3, 2, "bernoulli")
        for a, b in itertools.product((0, 1), repeat=2):
            j = env.graph.flat_indices((a, b, 0))[0]
            assert env.means[j] == BERNOULLI_PAIR_TABLE[a, b]

    def test_odd_group_table_transposed(self):
        env = chain_env(3, 2, "poisson")
        for a, b in itertools.product((0, 1), repeat=2):
            j = env.graph.flat_indices((0, a, b))[1]
            assert env.means[j] == POISSON_PAIR_TABLE[b, a]

    def test_too_few_agents(self):
        with pytest.raises(InvalidEnvironmentError):
            chain_env(2, 3, "bernoulli")
        with pytest.raises(InvalidEnvironmentError):
            chain_env(1, 2, "bernoulli")

    def test_bad_family(self):
        with pytest.raises(InvalidEnvironmentError):
            chain_env(4, 2, "gaussian")


class TestGemMining:
    def test_formula_spot_value(self):
        assert abs(1.03 ** 2 * 0.4 - 0.42436) < 1e-12

    def test_instance_shape(self):
        env = gem_mining_env(5, random.Random(13))
        g = env.graph
        assert g.num_agents == 5
        assert g.num_groups == 8
        for k in g.arm_counts:
            assert 2 <= k <= 4
        assert g.arm_counts[-1] == 4
        # every local-arm count matches the member arm-count product
        for e, members in enumerate(g.groups):
            prod = 1
            for i in members:
                prod *= g.arm_counts[i]
            assert g.group_sizes[e] == prod

    def test_local_count_matches_projection_census(self):
        env = gem_mining_env(5, random.Random(40))
        g = env.graph
        flats = set()
        for arms in enumerate_joint(g):
            flats.update(g.flat_indices(arms))
        assert len(flats) == g.num_local_arms

    def test_probabilities_clamped(self):
        # many seeds; all means must stay valid Bernoulli parameters
        for seed in range(30):
            env = gem_mining_env(4, random.Random(seed))
            assert all(0.0 <= mu <= 1.0 for mu in env.means)

    def test_means_follow_worker_formula(self):
        rng = random.Random(77)
        env = gem_mining_env(5, rng)
        g = env.graph
        # rebuild the instance from an identical stream and check one group
        rep = random.Random(77)
        workers = [rep.randint(1, 5) for _ in range(5)]
        reach = [rep.randint(2, 4) for _ in range(4)] + [4]
        num_mines = max(i + reach[i] for i in range(5))
        base_p = [rep.uniform(0.0, 0.5) for _ in range(num_mines)]
        for e, members in enumerate(g.groups):
            counts = [g.arm_counts[i] for i in members]
            for combo in itertools.product(*(range(k) for k in counts)):
                arms = [0] * 5
                for i, a in zip(members, combo):
                    arms[i] = a
                j = g.flat_indices(arms)[e]
                w = sum(workers[i] for i, a in zip(members, combo) if i + a == e)
                expected = min(1.0, 1.03 ** (w - 1) * base_p[e]) if w else 0.0
                assert env.means[j] == expected

    def test_mine_e_is_group_e(self):
        # the last village reaches mines n-1..n+2, so with reach >= 2 every
        # mine has a village and no group is dropped or renumbered
        for n in range(2, 61):
            for seed in range(3):
                g = gem_mining_env(n, random.Random(seed)).graph
                rep = random.Random(seed)
                for _ in range(n):
                    rep.randint(1, 5)  # the worker counts come first
                reach = [rep.randint(2, 4) for _ in range(n - 1)] + [4]
                assert g.num_groups == n + 3
                for e, members in enumerate(g.groups):
                    assert members
                    assert members == tuple(i for i in range(n) if i <= e < i + reach[i])

    def test_seeded_generation_bit_deterministic(self):
        a = gem_mining_env(6, random.Random(2024))
        b = gem_mining_env(6, random.Random(2024))
        assert a.means == b.means
        assert a.graph.groups == b.graph.groups
        assert a.graph.arm_counts == b.graph.arm_counts
        assert a.optimal_assignment == b.optimal_assignment

    def test_too_few_villages(self):
        with pytest.raises(InvalidEnvironmentError):
            gem_mining_env(1, random.Random(0))


class TestLowerBoundEnvironment:
    def test_candidate_count(self):
        env = lower_bound_env(2, 2, 3.5, 0.5)
        assert env.candidates.size == 5
        assert len(list(env.candidates)) == 5

    def test_optimal_mean(self):
        for rho in (1, 2, 3):
            env = lower_bound_env(rho, 3, 3.5, 0.5)
            assert abs(env.optimal_value - rho * 4.0) < 1e-12
            assert env.optimal_assignment == (0,) * rho

    def test_smallest_instance(self):
        env = lower_bound_env(1, 1, 3.5, 0.5)
        assert sorted(env.means) == [3.5, 4.0]

    def test_degenerate_no_decoys(self):
        env = lower_bound_env(2, 0, 3.5, 1.0)
        assert env.candidates.size == 1
        arms, value, _ = env.candidates.argmax([1.0, -5.0])
        assert arms == (0, 0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidEnvironmentError):
            lower_bound_env(0, 2, 3.5, 0.5)
        with pytest.raises(InvalidEnvironmentError):
            lower_bound_env(2, 2, 2.9, 0.5)
        with pytest.raises(InvalidEnvironmentError):
            lower_bound_env(2, 2, 3.5, 0.0)
        with pytest.raises(InvalidEnvironmentError):
            lower_bound_env(2, -1, 3.5, 0.5)
        with pytest.raises(InvalidEnvironmentError, match="^X "):
            lower_bound_env(2, 2, math.inf, 0.5)
        with pytest.raises(InvalidEnvironmentError, match="^delta "):
            lower_bound_env(2, 2, 3.5, math.inf)
        # finite X and delta whose means overflow: X + delta, then the sum of
        # the 2 x 67 means; the larger part is named
        with pytest.raises(InvalidEnvironmentError, match="^X is too large"):
            lower_bound_env(2, 2, 1e308, 1e308)
        with pytest.raises(InvalidEnvironmentError, match="^X is too large"):
            lower_bound_env(2, 66, 1e307, 1.0)
        with pytest.raises(InvalidEnvironmentError, match="^delta is too large"):
            lower_bound_env(2, 66, 3.5, 1.7e308)

    def test_restricted_argmax_matches_literal_scan(self):
        rng = random.Random(31)
        for rho, L in [(1, 1), (1, 4), (2, 3), (3, 2), (2, 5)]:
            env = lower_bound_env(rho, L, 3.5, 0.5)
            cand = env.candidates
            for it in range(80):
                # odd iterations draw small integers, so decoys often tie
                scores = [float(rng.randint(0, 2)) if it % 2 else rng.uniform(-2, 6)
                          for _ in range(env.graph.num_local_arms)]
                got_arms, got_value, _ = cand.argmax(scores)
                best_arms, best_value = None, -math.inf
                for arms in cand:
                    v = 0.0
                    for j in env.graph.flat_indices(arms):
                        v += scores[j]
                    if v > best_value:
                        best_arms, best_value = arms, v
                assert got_arms == best_arms
                assert abs(got_value - best_value) < 1e-12

    def test_restricted_argmax_tie_prefers_optimal(self):
        env = lower_bound_env(2, 2, 3.5, 0.5)
        res = env.candidates.argmax([1.0] * env.graph.num_local_arms)
        assert isinstance(res, EliminationResult)
        assert res == ((0, 0), 2.0, 6)

    @pytest.mark.parametrize("scores, message", [
        ([1.0, math.nan, 0.5], "contains non-finite entries"),
        ([1.0, math.inf, 0.5], "contains non-finite entries"),
        ([1e308, 1e308, 0.0], "entries are finite, but their sum overflows"),
        ([1.0, 0.5], "has length 2, expected 3"),
    ])
    def test_restricted_argmax_checks_scores(self, scores, message):
        # the NaN case used to return the decoy (1,), where a literal scan
        # of the candidates picks (0,)
        env = lower_bound_env(1, 2, 3.5, 0.5)
        with pytest.raises(ValueError, match=message):
            env.candidates.argmax(scores)

    def test_restricted_argmax_refuses_cancelling_overflow(self):
        # the scores sum to 0, but the optimum's total is 2e308; the
        # candidate set used to return it as inf
        env = lower_bound_env(2, 1, 3.5, 0.5)
        with pytest.raises(ValueError, match="entries are finite, but their sum overflows"):
            env.candidates.argmax([1e308, -1e308, 1e308, -1e308])

    def test_candidate_sampling_uniform(self):
        env = lower_bound_env(2, 2, 3.5, 0.5)
        rng = TrialDraws(3)
        counts = {}
        rounds = 50_000
        for _ in range(rounds):
            a = env.candidates.sample(rng)
            counts[a] = counts.get(a, 0) + 1
        assert set(counts) == set(env.candidates)
        for c in counts.values():
            assert abs(c / rounds - 0.2) < 0.01

    def test_candidate_sampling_uniform_beyond_2_to_53(self):
        # 50**10 + 1 candidates take two choice uniforms a draw; each
        # agent's arm is the optimal one with chance 1 / size and
        # otherwise a decoy, uniform on 1..50
        env = lower_bound_env(10, 50, 3.5, 0.5)
        rng = TrialDraws(0)
        rounds = 20_000
        counts = np.zeros((10, 51))
        for _ in range(rounds):
            counts[np.arange(10), env.candidates.sample(rng)] += 1
        assert not counts[:, 0].any()
        sigma = math.sqrt(rounds / 50 * (1 - 1 / 50))
        assert np.all(np.abs(counts[:, 1:] - rounds / 50) <= 5 * sigma)

    def test_candidate_sampling_by_multiply_shift(self):
        # index x * size >> 106 of the candidate list, for x the 106-bit
        # integer of two choice uniforms; list entry i > 0 is the decoy
        # combination whose base-50 digits, first agent first, are i - 1
        cands = lower_bound_env(10, 50, 3.5, 0.5).candidates
        for seed in range(20):
            u, v = TrialDraws(seed).choices.take(2)
            x = int(u * 2.0 ** 53) << 53 | int(v * 2.0 ** 53)
            rest = (x * cands.size >> 106) - 1
            digits = []
            for _ in range(10):
                rest, d = divmod(rest, 50)
                digits.append(d + 1)
            assert cands.sample(TrialDraws(seed)) == tuple(reversed(digits))

    def test_candidate_sampling_rejects_the_biased_remainder(self):
        # 8192**4 + 1 = 2**52 + 1 candidates: one uniform's 53 bits cover
        # them, and about half the draws land in the remainder that
        # Lemire's rejection redraws
        size = 2 ** 52 + 1
        cands = RestrictedCandidates(offsets=tuple(range(0, 4 * 8193, 8193)),
                                     num_decoys=8192, optimal=(0,) * 4)
        assert cands.size == size
        redrawn = 0
        for seed in range(20):
            rng, replay = TrialDraws(seed), TrialDraws(seed)
            while True:
                m = int(replay.choices.take(1)[0] * 2.0 ** 53) * size
                if m % 2 ** 53 >= 2 ** 53 % size:
                    break
                redrawn += 1
            idx = m >> 53
            expected = (0,) * 4 if idx == 0 else tuple(
                (idx - 1) // 8192 ** (3 - i) % 8192 + 1 for i in range(4))
            assert cands.sample(rng) == expected
        assert redrawn >= 3

    def test_decoy_sizing_grows_with_groups(self):
        sizes = [decoys_per_group(rho) for rho in (1, 2, 4)]
        assert sizes == sorted(sizes)
        # independent evaluation of ceil(2e (rho log(2) + log(rho)) / log(1/b))
        # with b the standard normal mass below 1
        log_inv_b = -math.log(0.5 * (1 + math.erf(1 / math.sqrt(2))))
        for rho, got in zip((1, 2, 4), sizes):
            expected = math.ceil(
                2 * math.e * (rho * math.log(2) + math.log(rho)) / log_inv_b)
            assert got == expected
        assert sizes == [22, 66, 131]


class TestRewardSampling:
    def test_degenerate_bernoulli(self):
        g = Hypergraph(1, [1], [[0]])
        env = make_environment(g, [1.0], ["bernoulli"], "unit")
        rng = TrialDraws(0)
        assert all(sample_rewards(env, (0,), rng) == [1.0] for _ in range(200))

    def test_bernoulli_mean(self):
        g = Hypergraph(1, [1], [[0]])
        env = make_environment(g, [0.75], ["bernoulli"], "unit")
        rng = TrialDraws(5)
        draws = [sample_rewards(env, (0,), rng)[0] for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.75) < 0.01

    def test_poisson_moments(self):
        g = Hypergraph(1, [1], [[0]])
        env = make_environment(g, [0.3], ["poisson"], "unit")
        rng = TrialDraws(6)
        draws = [sample_rewards(env, (0,), rng)[0] for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.3) < 0.01
        assert abs(np.var(draws) - 0.3) < 0.02

    def test_poisson_moments_at_bound(self):
        # the largest accepted mean still samples exactly
        g = Hypergraph(1, [1], [[0]])
        env = make_environment(g, [POISSON_MAX_MEAN], ["poisson"], "unit")
        rng = TrialDraws(8)
        n = 2000
        draws = [sample_rewards(env, (0,), rng)[0] for _ in range(n)]
        lam = POISSON_MAX_MEAN
        assert abs(np.mean(draws) - lam) < 4 * math.sqrt(lam / n)
        assert abs(np.var(draws) - lam) < 4 * lam * math.sqrt(2 / n)

    def test_gaussian_moments(self):
        g = Hypergraph(1, [1], [[0]])
        env = make_environment(g, [2.0], ["gaussian"], "unit")
        rng = TrialDraws(7)
        draws = [sample_rewards(env, (0,), rng)[0] for _ in range(100_000)]
        assert abs(np.mean(draws) - 2.0) < 0.02
        assert abs(np.var(draws) - 1.0) < 0.02

    def test_draw_order_by_group(self):
        # group e's reward is read from entry e of the round's slice of
        # reward uniforms (normals for a gaussian group), one slice a round
        env = make_environment(Hypergraph(3, [2, 2, 2], [[0], [1], [2]]),
                               [0.5, 0.25, 3.0, 1.5, 0.5, 2.0],
                               ["bernoulli", "poisson", "gaussian"], "mixed")
        rng = TrialDraws(9)
        rewards = [sample_rewards(env, (0, 1, 1), rng) for _ in range(40)]
        u = draws.uniforms(draws.stream_key(9, draws.REWARDS), 0, 120).tolist()
        z = draws.normals(draws.stream_key(9, draws.REWARD_NORMALS), 0, 120)
        expected = []
        for t in range(40):
            k, cdf, p = 0, math.exp(-1.5), math.exp(-1.5)
            while u[3 * t + 1] > cdf:
                k += 1
                p *= 1.5 / k
                cdf += p
            expected.append([1.0 if u[3 * t] < 0.5 else 0.0, float(k), 2.0 + z[3 * t + 2]])
        assert rewards == expected

    @pytest.mark.parametrize("lam", [0.1, 10.0, 700.0])
    def test_poisson_moments_by_inversion(self, lam):
        # mean and variance within 5 standard errors; a Poisson's fourth
        # central moment is lam + 3 lam^2, so the sample variance's standard
        # error is sqrt((lam + 2 lam^2) / n)
        env = make_environment(Hypergraph(1, [1], [[0]]), [lam], ["poisson"], "unit")
        rng = TrialDraws(int(lam * 10))
        n = 10_000
        values = np.array([sample_rewards(env, (0,), rng)[0] for _ in range(n)])
        assert abs(values.mean() - lam) < 5 * math.sqrt(lam / n)
        assert abs(values.var(ddof=1) - lam) < 5 * math.sqrt((lam + 2 * lam ** 2) / n)

    @pytest.mark.parametrize("lam", [0.1, 10.0, 700.0])
    def test_poisson_draws_replay_inversion_from_exp(self, lam):
        # the mass at 0 the environment computed when it was built is
        # math.exp(-lam), so every draw equals inversion replayed from it
        env = make_environment(Hypergraph(1, [2], [[0]]), [0.5, lam], ["poisson"], "unit")
        rng = TrialDraws(3)
        got = [sample_rewards(env, (1,), rng)[0] for _ in range(300)]
        expected = []
        for u in draws.uniforms(draws.stream_key(3, draws.REWARDS), 0, 300).tolist():
            k, p = 0, math.exp(-lam)
            cdf = p
            while u > cdf and p:
                k += 1
                p *= lam / k
                cdf += p
            expected.append(float(k))
        assert got == expected
        assert env.zero_mass == (math.exp(-0.5), math.exp(-lam))

    def test_zero_mass_only_for_poisson_groups(self):
        env = make_environment(Hypergraph(3, [2, 2, 2], [[0], [1], [2]]),
                               [0.5, 0.25, 3.0, 1.5, -800.0, 2.0],
                               ["bernoulli", "poisson", "gaussian"], "mixed")
        assert env.zero_mass == (0.0, 0.0, math.exp(-3.0), math.exp(-1.5), 0.0, 0.0)

    def test_rejects_invalid_assignment(self):
        env = chain_env(3, 2, "bernoulli")
        with pytest.raises(ValueError):
            sample_rewards(env, (0, 1), TrialDraws(1))
        with pytest.raises(ValueError):
            sample_rewards(env, (0, 1, 2), TrialDraws(1))


class TestPseudoRegret:
    def test_zero_at_optimum(self):
        for env in [chain_env(6, 2, "bernoulli"), chain_env(5, 3, "poisson")]:
            assert pseudo_regret(env, env.optimal_assignment) == 0.0

    def test_single_group_value(self):
        env = chain_env(2, 2, "bernoulli")
        assert abs(pseudo_regret(env, (1, 0)) - 0.75) < 1e-12

    def test_average_gap_under_uniform_play(self):
        env = chain_env(2, 2, "bernoulli")
        gaps = [pseudo_regret(env, a) for a in enumerate_joint(env.graph)]
        assert abs(np.mean(gaps) - 0.275) < 1e-12

    def test_nonnegative_everywhere(self):
        for env in [chain_env(7, 2, "bernoulli"), chain_env(6, 3, "bernoulli"),
                    gem_mining_env(4, random.Random(3)),
                    lower_bound_env(2, 3, 3.5, 0.5)]:
            for arms in enumerate_joint(env.graph):
                assert pseudo_regret(env, arms) >= 0.0

    def test_optimum_matches_brute_force(self):
        for env in [chain_env(8, 2, "poisson"), chain_env(7, 3, "bernoulli"),
                    gem_mining_env(5, random.Random(11)),
                    lower_bound_env(3, 4, 3.5, 0.5)]:
            res = brute_argmax(env.graph, list(env.means))
            assert res.argmax == env.optimal_assignment
            assert abs(res.value - env.optimal_value) < 1e-9


class TestLargeChainUsesElimination:
    def test_m24_chain_optimum(self):
        # joint space 2^24 exceeds the brute cap; construction must still
        # locate the alternating optimum
        env = chain_env(24, 2, "bernoulli")
        assert env.optimal_assignment == tuple(i % 2 for i in range(24))
        assert abs(env.optimal_value - 23.0) < 1e-9


class TestMakeEnvironmentValidation:
    def test_bernoulli_range_checked(self):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError):
            make_environment(g, [0.5, 1.2], ["bernoulli"], "bad")

    def test_poisson_sign_checked(self):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError):
            make_environment(g, [0.5, -0.1], ["poisson"], "bad")

    def test_family_name_checked(self):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError):
            make_environment(g, [0.5, 0.1], ["beta"], "bad")

    def test_means_length_checked(self):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError):
            make_environment(g, [0.5], ["bernoulli"], "bad")

    def test_families_length_checked(self):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError, match="families has length 2, expected 1"):
            make_environment(g, [0.5, 0.1], ["bernoulli"] * 2, "bad")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_checked(self, bad):
        g = Hypergraph(1, [2], [[0]])
        with pytest.raises(InvalidEnvironmentError, match="local arm 1 has non-finite mean"):
            make_environment(g, [0.5, bad], ["gaussian"], "bad")


class TestTableEnvironment:
    def _write(self, tmp_path, text):
        p = tmp_path / "env.txt"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_round_trip_single_pair(self, tmp_path):
        path = self._write(tmp_path, """
# two binary agents, one shared group
arms 2 2
group 0 1
family bernoulli
mean 0 0.75
mean 1 1.0
mean 2 0.25
mean 3 0.9
""")
        env = load_table_env(path)
        assert env.means == (0.75, 1.0, 0.25, 0.9)
        assert env.optimal_assignment == (0, 1)
        assert env.optimal_value == 1.0

    def test_matches_builtin_chain(self, tmp_path):
        ref = chain_env(3, 2, "bernoulli")
        lines = ["arms 2 2 2", "group 0 1", "group 1 2",
                 "family bernoulli", "family bernoulli"]
        for j, mu in enumerate(ref.means):
            lines.append(f"mean {j} {mu!r}")
        env = load_table_env(self._write(tmp_path, "\n".join(lines)))
        assert env.means == ref.means
        assert env.optimal_assignment == ref.optimal_assignment

    def test_unknown_directive(self, tmp_path):
        path = self._write(tmp_path, "arms 2\ngroups 0\n")
        with pytest.raises(InvalidEnvironmentError, match="unknown directive"):
            load_table_env(path)

    def test_missing_mean(self, tmp_path):
        path = self._write(tmp_path,
                           "arms 2\ngroup 0\nfamily bernoulli\nmean 0 0.5\n")
        with pytest.raises(InvalidEnvironmentError, match="missing means"):
            load_table_env(path)

    def test_duplicate_mean(self, tmp_path):
        path = self._write(
            tmp_path,
            "arms 2\ngroup 0\nfamily bernoulli\nmean 0 0.5\nmean 0 0.6\nmean 1 0.1\n")
        with pytest.raises(InvalidEnvironmentError, match="duplicate mean"):
            load_table_env(path)

    def test_family_count_checked(self, tmp_path):
        path = self._write(tmp_path,
                           "arms 2\ngroup 0\nmean 0 0.5\nmean 1 0.1\n")
        with pytest.raises(InvalidEnvironmentError, match="family"):
            load_table_env(path)

    @pytest.mark.parametrize("text, message", [
        ("arms 2\narms 2\n", "line 2: duplicate arms line"),
        ("arms 2 two\n", "line 1: arms expects integers"),
        ("arms 2\ngroup 0 x\n", "line 2: group expects agent indices"),
        ("arms 2\ngroup 0\nfamily bernoulli 2\n", "line 3: family expects one name"),
        ("arms 2\ngroup 0\nmean 0\n", "line 3: mean expects an index and a value"),
        ("arms 2\ngroup 0\nmean 0.5 0.5\n",
         "line 3: mean expects an integer index and a float"),
        ("group 0\nfamily bernoulli\n", "missing arms line"),
        ("arms 2\nfamily bernoulli\n", "missing group lines"),
        ("arms 2\ngroup 0\nfamily bernoulli\nmean 2 0.5\n",
         r"line 4: mean index 2 outside \[0, 2\)"),
    ])
    def test_malformed_line_named(self, tmp_path, text, message):
        with pytest.raises(InvalidEnvironmentError, match=message):
            load_table_env(self._write(tmp_path, text))

    def test_poisson_mean_above_bound_rejected(self, tmp_path):
        path = self._write(tmp_path, "arms 2\ngroup 0\nfamily poisson\n"
                                     "mean 0 0\nmean 1 1000\n")
        with pytest.raises(InvalidEnvironmentError, match="local arm 1 "):
            load_table_env(path)

    def test_checked_in_example_loads(self):
        env = load_table_env("sample_configs/table_env_example.txt")
        assert env.graph.num_groups >= 1
        assert env.optimal_value >= max(env.means)
