"""The wide stats layout gives the narrow layout's bits.

A trial whose rows draw at least `policies.WIDE_ROW` scores holds its
stats as numpy arrays and reads its score normals and gate passes as
arrays. Forcing every trial narrow (WIDE_ROW = inf) and then every trial
wide (WIDE_ROW = 0) must give the same checkpoints, Gaussian draws and
argmax cells on every environment family and policy kind.

CI runs this file with `python -W error::RuntimeWarning`: numpy warns,
rather than fails, on overflow and invalid values in array expressions.
"""

import math
import random

import numpy as np
import pytest

from mamab import draws, harness, policies
from mamab.draws import TrialDraws
from mamab.environments import (chain_env, decoys_per_group,
                                gem_mining_env, load_table_env, lower_bound_env)
from mamab.harness import first_optimal_pull, run_trial
from mamab.policies import LocalArmStats, PolicyConfig, sample_scores, ucb_scores

MIXED_TABLE = """
arms 2 3 2
group 0 1
group 1 2
group 2
family bernoulli
family poisson
family gaussian
""" + "".join(f"mean {j} {0.05 + 0.07 * j}\n" for j in range(14))

ENVS = {
    "bernoulli_chain": lambda _: chain_env(6, 2, "bernoulli"),
    "poisson_chain": lambda _: chain_env(5, 3, "poisson"),
    "gem_mining": lambda _: gem_mining_env(5, random.Random(42)),
    "lower_bound_rho1": lambda _: lower_bound_env(1, decoys_per_group(1), 3.5, 0.5),
    "lower_bound_rho2": lambda _: lower_bound_env(2, decoys_per_group(2), 3.5, 0.5),
    "lower_bound_rho4": lambda _: lower_bound_env(4, decoys_per_group(4), 3.5, 0.5),
    "mixed_table": lambda tmp_path: load_table_env(_write(tmp_path, MIXED_TABLE)),
}
CONFIGS = {
    "eps1": PolicyConfig("eps_mats", epsilon=1.0, c=2.0),
    "eps0.5": PolicyConfig("eps_mats", epsilon=0.5, c=2.0),
    "eps0.05": PolicyConfig("eps_mats", epsilon=0.05, c=2.0),
    "ucb": PolicyConfig("ucb_baseline", ucb_range=1.0),
}


def _write(tmp_path, text):
    path = tmp_path / "env.txt"
    path.write_text(text)
    return str(path)


def trace_data(trace):
    return ([(t, r.hex()) for t, r in trace.checkpoints], trace.gaussian_draws,
            trace.argmax_ops)


def run_as(monkeypatch, wide_row, fn, *args):
    """fn(*args) with WIDE_ROW set, the layout of every stats update and
    the flat indices every update folded rewards into."""
    layouts = set()
    played = []

    def spy(stats, flat, rewards):
        layouts.add(stats.wide)
        played.append(tuple(flat))
        return policies.update_stats_at(stats, flat, rewards)

    monkeypatch.setattr(policies, "WIDE_ROW", wide_row)
    monkeypatch.setattr(harness, "update_stats_at", spy)
    return fn(*args), layouts, played


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("make_env", ENVS.values(), ids=ENVS.keys())
def test_wide_trial_is_the_narrow_trial(monkeypatch, tmp_path, make_env, cfg):
    env = make_env(tmp_path)
    narrow, narrow_layouts, _ = run_as(monkeypatch, math.inf, run_trial, env, cfg, 300, 7, 50)
    assert narrow_layouts == {False}
    assert (narrow.gaussian_draws > 0) == bool(cfg.epsilon)
    # every wide update scatters, then every one folds slot by slot: the
    # small graphs here touch fewer groups than SCATTER_GROUPS
    for scatter_groups in (0, math.inf):
        monkeypatch.setattr(policies, "SCATTER_GROUPS", scatter_groups)
        wide, wide_layouts, _ = run_as(monkeypatch, 0, run_trial, env, cfg, 300, 7, 50)
        assert wide_layouts == {True}
        assert trace_data(wide) == trace_data(narrow)


@pytest.mark.parametrize("rho, L, epsilon", [(1, 1, 1.0), (2, 1, 1.0), (2, 2, 0.5),
                                             (4, decoys_per_group(4), 1.0)])
def test_wide_first_pull_is_the_narrow_first_pull(monkeypatch, rho, L, epsilon):
    env = lower_bound_env(rho, L, 3.5, 0.5)
    cfg = PolicyConfig("eps_mats", epsilon=epsilon, c=1.0)
    hits = []
    for seed in range(5):
        narrow, _, narrow_played = run_as(monkeypatch, math.inf, first_optimal_pull, env,
                                          cfg, 2000, seed)
        wide, _, wide_played = run_as(monkeypatch, 0, first_optimal_pull, env, cfg, 2000, seed)
        assert (wide, wide_played) == (narrow, narrow_played)
        hits.append(narrow)
    # some trials stop early and some run censored; at rho = 4 every trial
    # runs censored (acceptance criterion 8's median there is T + 1)
    assert None in hits and (any(hits) or rho == 4)


def test_the_default_rule_splits_the_benchmark_rows():
    # A_loc for ucb_baseline and eps_mats at epsilon 1, epsilon * A_loc
    # otherwise, none for random
    assert policies.wide_rows(CONFIGS["ucb"], policies.WIDE_ROW)
    assert policies.wide_rows(CONFIGS["eps1"], policies.WIDE_ROW)
    assert not policies.wide_rows(CONFIGS["eps1"], policies.WIDE_ROW - 1)
    assert policies.wide_rows(CONFIGS["eps0.5"], 2 * policies.WIDE_ROW)
    assert not policies.wide_rows(CONFIGS["eps0.5"], 2 * policies.WIDE_ROW - 2)
    assert not policies.wide_rows(PolicyConfig("random"), 10 ** 9)
    # chain10 at epsilon 1 (36 slots) stays narrow; the rho = 4 instance
    # (528 slots) and the m = 100 chain under UCB (396) run wide
    assert not policies.wide_rows(CONFIGS["eps1"], 36)
    assert policies.wide_rows(CONFIGS["eps1"], 528)
    assert policies.wide_rows(CONFIGS["ucb"], 396)


def random_stats(rng, size, wide):
    n = [rng.choice([0, 1, 2, 7, 10 ** 6]) for _ in range(size)]
    mu = [rng.uniform(-3.0, 5.0) for _ in range(size)]
    if wide:
        return LocalArmStats(n=np.array(n, dtype=np.int64), mu_hat=np.array(mu))
    return LocalArmStats(n=n, mu_hat=mu)


@pytest.mark.parametrize("epsilon", [1.0, 0.3])
def test_wide_scores_are_the_narrow_bits(epsilon):
    cfg = PolicyConfig("eps_mats", epsilon=epsilon, c=2.5)
    narrow = random_stats(random.Random(4), 97, False)
    wide = random_stats(random.Random(4), 97, True)
    narrow_rng, wide_rng = TrialDraws(8), TrialDraws(8, wide=True)
    for t in range(1, 40):
        got = sample_scores(wide, cfg, wide_rng)
        assert type(got) is np.ndarray
        assert [x.hex() for x in got.tolist()] == [
            x.hex() for x in sample_scores(narrow, cfg, narrow_rng)]
        got = ucb_scores(wide, t, PolicyConfig("ucb_baseline", ucb_range=1.5))
        assert [x.hex() for x in got.tolist()] == [
            x.hex() for x in ucb_scores(narrow, t, PolicyConfig("ucb_baseline", ucb_range=1.5))]


@pytest.mark.parametrize("epsilon", [1.0, 0.3])
def test_scale_table_regrows_with_the_formula_bits(epsilon):
    # fresh counts build a two-entry table; counts that grow round by
    # round pass its end again and again, and a new c rebuilds it
    narrow, wide = LocalArmStats.fresh(97), LocalArmStats.fresh(97, wide=True)
    narrow_rng, wide_rng = TrialDraws(9), TrialDraws(9, wide=True)
    rng = random.Random(10)
    sizes = set()
    for t in range(1, 80):
        cfg = PolicyConfig("eps_mats", epsilon=epsilon, c=2.5 if t < 60 else 0.7)
        got = sample_scores(wide, cfg, wide_rng)
        assert [x.hex() for x in got.tolist()] == [
            x.hex() for x in sample_scores(narrow, cfg, narrow_rng)]
        sizes.add((wide.scale_table[0], len(wide.scale_table[1])))
        flat = [0, 1, 2] + rng.sample(range(3, 97), 5)
        rewards = [rng.uniform(-2.0, 9.0) for _ in flat]
        policies.update_stats_at(narrow, flat, rewards)
        policies.update_stats_at(wide, flat, rewards)
    assert wide.n.max() == 79
    assert len(sizes) >= 6 and {c for c, _ in sizes} == {2.5, 0.7}


def test_wide_update_is_the_narrow_update():
    narrow = random_stats(random.Random(5), 40, False)
    wide = random_stats(random.Random(5), 40, True)
    rng = random.Random(6)
    for _ in range(200):
        # below SCATTER_GROUPS the wide update folds slot by slot, from it
        # the update scatters
        flat = rng.sample(range(40), rng.choice([1, 9, policies.SCATTER_GROUPS, 30]))
        rewards = [rng.choice([0.0, 1.0, rng.uniform(-2.0, 9.0)]) for _ in flat]
        policies.update_stats_at(narrow, flat, rewards)
        policies.update_stats_at(wide, flat, rewards)
    assert wide.n.tolist() == narrow.n
    assert [x.hex() for x in wide.mu_hat.tolist()] == [x.hex() for x in narrow.mu_hat]


@pytest.mark.parametrize("n", [
    np.array([1.5, 2.0] * 70),
    np.array([1.0, 2.0]),                 # integral values, float dtype
    np.array([True, False]),
    [1.5, 2],
    [1, 2.0],
    [True, 2],
    [np.int64(3), 2],
])
def test_stats_refuse_counts_that_are_not_integers(n):
    # a fractional count sampled at its own scale, and the wide layout
    # indexes its scale table by count
    mu_hat = np.zeros(len(n)) if type(n) is np.ndarray else [0.0] * len(n)
    with pytest.raises(ValueError, match="pull counts must be integers"):
        LocalArmStats(n=n, mu_hat=mu_hat)


def test_wide_stats_refuse_negative_counts():
    with pytest.raises(ValueError, match="got -1"):
        LocalArmStats(n=np.array([3, -1]), mu_hat=np.zeros(2))
    assert len(LocalArmStats.fresh(5, wide=True)) == 5


@pytest.mark.parametrize("block_cap", [draws.BLOCK_CAP, 1, 5])
def test_array_streams_are_the_list_streams(monkeypatch, block_cap):
    # odd slices cross block boundaries at odd starts
    monkeypatch.setattr(draws, "BLOCK_CAP", block_cap)
    narrow, wide = TrialDraws(21), TrialDraws(21, wide=True)
    for n in (1, 62, 3, 129, 0, 4093, 7, 8191, 2):
        got = wide.scores.take(n)
        assert type(got) is np.ndarray
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in narrow.scores.take(n)]


@pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.05, 1e-3, 5e-324])
@pytest.mark.parametrize("width", [1, 7, 132, 528])
def test_array_passes_are_the_list_passes(monkeypatch, epsilon, width):
    monkeypatch.setattr(draws, "BLOCK_CAP", 256)
    narrow, wide = TrialDraws(3), TrialDraws(3, wide=True)
    for _ in range(40_000 // width):
        got = wide.passes(epsilon, width)
        assert got.dtype == np.int64
        assert got.tolist() == narrow.passes(epsilon, width)
    with pytest.raises(ValueError, match="not 0.25 over"):
        wide.passes(0.25, width)


class TestRestrictedArrayArgmax:
    @pytest.mark.parametrize("rho, L", [(1, 0), (1, 1), (1, 4), (2, 3), (3, 2), (4, 131)])
    def test_array_argmax_is_the_list_argmax(self, rho, L):
        cand = lower_bound_env(rho, L, 3.5, 0.5).candidates
        rng = random.Random(rho * 100 + L)
        for it in range(200):
            # odd iterations draw small integers, so candidates often tie;
            # -0.0 and 0.0 tie as well
            scores = [float(rng.randint(-1, 1)) * rng.choice([1.0, -1.0]) if it % 2
                      else rng.uniform(-2, 6) for _ in range(rho * (L + 1))]
            got = cand.argmax(np.array(scores))
            want = cand.argmax(scores)
            assert (got.argmax, got.value.hex(), got.op_count) == (
                want.argmax, want.value.hex(), want.op_count)
            assert type(got.value) is float
            assert all(type(a) is int for a in got.argmax)

    def test_ties_go_to_the_earliest_candidate(self):
        cand = lower_bound_env(2, 3, 3.5, 0.5).candidates
        assert cand.argmax(np.ones(8)).argmax == (0, 0)
        assert cand.argmax(np.array([0.0, 1.0, 2.0, 2.0, 0.0, 3.0, 1.0, 3.0])).argmax == (2, 1)

    @pytest.mark.parametrize("scores, message", [
        ([1.0, math.nan, 0.5], "contains non-finite entries"),
        ([1.0, -math.inf, 0.5], "contains non-finite entries"),
        ([1e308, 1e308, 0.0], "entries are finite, but their sum overflows"),
        ([1.0, 0.5], "has length 2, expected 3"),
    ])
    def test_array_checks_give_the_list_messages(self, scores, message):
        cand = lower_bound_env(1, 2, 3.5, 0.5).candidates
        for given in (scores, np.array(scores)):
            with pytest.raises(ValueError, match=message):
                cand.argmax(given)

    def test_past_the_cheap_bound_the_list_check_decides(self):
        # max |x| times the count overflows, but the sum does not
        cand = lower_bound_env(1, 2, 3.5, 0.5).candidates
        scores = [1e308, 0.0, 0.0]
        assert cand.argmax(np.array(scores)) == cand.argmax(scores)
