"""Shared fixtures. The heavy benchmark runs are session-scoped so the
trend tests and the acceptance suite reuse one set of trials."""

import math
import random
import time

import pytest

from mamab.environments import chain_env, decoys_per_group, gem_mining_env, lower_bound_env
from mamab.harness import ExperimentSpec, median_first_optimal_pull, run_experiment
from mamab.policies import PolicyConfig

SWEEP_HORIZON = 10_000
SWEEP_TRIALS = 50
SWEEP_EPSILONS = (1.0, 0.5, 0.1, 0.05, 0.01, 0.001)
SWEEP_BASE_SEED = 1000
GEM_ENV_SEED = 42
GEM_BASE_SEED = 2000
LB_BASE_SEED = 3000

# the session fixtures that replay the benchmark experiments; every test
# that needs one is marked slow, so `pytest -m "not slow"` skips them
HEAVY_FIXTURES = {"bernoulli_sweep", "bernoulli_random", "gem_runs", "lb_medians"}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if HEAVY_FIXTURES.intersection(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def bernoulli_sweep():
    """Epsilon sweep on the 10-agent pairwise Bernoulli chain at
    c = ln T. Returns (env, {epsilon: ExperimentResult}, {epsilon: wall
    seconds}).

    Final regret is U-shaped in epsilon with its minimum near
    epsilon * c ~ 0.1, so at c = ln T ~ 9.2 the sweet spot sits near
    epsilon = 0.01. The grid must bracket it: epsilon = 1 over-explores
    and epsilon = 0.001, one decade below, under-explores. Each trial's
    stream depends only on its seed, so adding a grid point leaves the
    other points' results unchanged."""
    env = chain_env(10, 2, "bernoulli")
    results = {}
    elapsed = {}
    for eps in SWEEP_EPSILONS:
        cfg = PolicyConfig("eps_mats", epsilon=eps, c=math.log(SWEEP_HORIZON))
        spec = ExperimentSpec(env, cfg, SWEEP_HORIZON, SWEEP_TRIALS,
                              SWEEP_BASE_SEED, log_every=5000)
        start = time.perf_counter()
        results[eps] = run_experiment(spec)
        elapsed[eps] = time.perf_counter() - start
    return env, results, elapsed


@pytest.fixture(scope="session")
def bernoulli_random(bernoulli_sweep):
    env, _, _ = bernoulli_sweep
    spec = ExperimentSpec(env, PolicyConfig("random"), SWEEP_HORIZON,
                          SWEEP_TRIALS, SWEEP_BASE_SEED, log_every=5000)
    return run_experiment(spec)


@pytest.fixture(scope="session")
def gem_runs():
    """One seeded 5-village / 8-mine instance, posterior-sampling policy
    against uniform random."""
    env = gem_mining_env(5, random.Random(GEM_ENV_SEED))
    eps_cfg = PolicyConfig("eps_mats", epsilon=0.1, c=math.log(SWEEP_HORIZON))
    eps_res = run_experiment(ExperimentSpec(env, eps_cfg, SWEEP_HORIZON,
                                            SWEEP_TRIALS, GEM_BASE_SEED,
                                            log_every=5000))
    rnd_res = run_experiment(ExperimentSpec(env, PolicyConfig("random"),
                                            SWEEP_HORIZON, SWEEP_TRIALS,
                                            GEM_BASE_SEED, log_every=5000))
    return env, eps_res, rnd_res


@pytest.fixture(scope="session")
def lb_medians():
    """Median round of the first optimal pull on the restricted-action
    environment, per group count, with the default decoy sizing and
    c = epsilon = 1. Censored trials (no pull within the horizon) enter
    the median as horizon + 1.

    Once the decoys lock in, the all-optimal joint arm wins the sampled
    argmax only when rho unpulled-arm samples N(0, c) together beat rho
    decoy means of about X = 3.5: P(N(0, rho) > 3.5 rho) per round, i.e.
    2.3e-4 at rho=1, 3.7e-7 at rho=2 and 1.3e-12 at rho=4. Within
    T = 10**4 rounds a trial is censored with probability about 0.1,
    0.996 and 1 - 1e-8, so the rho=2 and rho=4 medians are censored
    (horizon + 1) in almost every run."""
    cfg = PolicyConfig("eps_mats", epsilon=1.0, c=1.0)
    medians = {}
    for rho in (1, 2, 4):
        env = lower_bound_env(rho, decoys_per_group(rho), 3.5, 0.5)
        medians[rho] = median_first_optimal_pull(env, cfg, SWEEP_HORIZON,
                                                 LB_BASE_SEED, SWEEP_TRIALS)
    return medians
