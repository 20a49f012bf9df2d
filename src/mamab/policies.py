"""Decision policies over local-arm statistics.

Three policy kinds share one interface:

* ``eps_mats``: per local arm, with probability epsilon the score is a
  posterior sample Normal(mu_hat, c / (n + 1)); otherwise the score is
  the empirical mean itself. epsilon = 1 is full posterior-sampling
  coordination (Thompson sampling on every local arm, every round);
  smaller epsilon trades exploration for speed.
* ``ucb_baseline``: optimism bonus added to each local mean. This is a
  plain UCB-style construction for comparison runs, not a faithful
  reimplementation of any published multi-agent UCB method.
* ``random``: uniform independent arm per agent.

All randomness flows through one ``random.Random`` stream owned by the
caller. Draw order is part of the contract: scores are produced in
ascending flat-local-arm order, and each arm consumes its Bernoulli
gate draw first and, only when the gate passes, one Gaussian draw. This
makes every run reproducible from (config, seed) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .elimination import ve_argmax
from .hypergraph import Hypergraph, JointAssignment, validate_assignment

POLICY_KINDS = ("eps_mats", "ucb_baseline", "random")


@dataclass(frozen=True)
class PolicyConfig:
    """Hyperparameters for one policy.

    epsilon is meaningful for eps_mats only and must lie in (0, 1] for
    any run configured through the public surface; epsilon = 0 (pure
    greedy on empirical means) is permitted when constructing the config
    directly, for diagnostics and tests. c > 0 scales the posterior
    variance. ucb_range > 0 scales the ucb_baseline bonus. Both must be
    finite: an infinite scale drowns every mean and plays near-uniformly.
    """

    kind: str
    epsilon: Optional[float] = None
    c: Optional[float] = None
    ucb_range: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "eps_mats":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError(f"c must be positive and finite, got {self.c}")
        elif self.kind == "ucb_baseline":
            if self.ucb_range is None or not 0 < self.ucb_range < math.inf:
                raise ValueError(
                    f"ucb_range must be positive and finite, got {self.ucb_range}")


@dataclass
class LocalArmStats:
    """Pull counts and empirical means per flat local arm. This is the
    entire mutable state a policy carries between rounds."""

    n: list[int]
    mu_hat: list[float]

    @classmethod
    def fresh(cls, num_local_arms: int) -> "LocalArmStats":
        return cls(n=[0] * num_local_arms, mu_hat=[0.0] * num_local_arms)

    def __len__(self) -> int:
        return len(self.n)


@dataclass
class WorkTally:
    """Accumulates per-trial work counters."""

    gaussian_draws: int = 0
    argmax_ops: int = 0


def sample_scores(stats: LocalArmStats, cfg: PolicyConfig, rng: Random,
                  tally: Optional[WorkTally] = None) -> list[float]:
    """Score vector for eps_mats.

    For each flat local arm j, ascending: draw the Bernoulli(epsilon)
    gate; when it passes, draw Normal(mu_hat[j], c / (n[j] + 1)),
    otherwise keep mu_hat[j].
    """
    eps = cfg.epsilon
    c = cfg.c
    uniform = rng.random
    gauss = rng.gauss
    sqrt = math.sqrt
    scores = []
    append = scores.append
    draws = 0
    for m, nj in zip(stats.mu_hat, stats.n):
        if uniform() < eps:
            append(gauss(m, sqrt(c / (nj + 1))))
            draws += 1
        else:
            append(m)
    if tally is not None:
        tally.gaussian_draws += draws
    return scores


def ucb_scores(stats: LocalArmStats, t: int, cfg: PolicyConfig) -> list[float]:
    """Optimistic score per local arm:
    mu_hat[j] + ucb_range * sqrt(ln(t * A_loc) / (2 * (n[j] + 1))).
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    scale = cfg.ucb_range
    log_term = math.log(t * len(stats))
    return [m + scale * math.sqrt(log_term / (2.0 * (nj + 1)))
            for m, nj in zip(stats.mu_hat, stats.n)]


def select_arm(h: Hypergraph, stats: LocalArmStats, cfg: PolicyConfig, t: int,
               rng: Random, tally: Optional[WorkTally] = None,
               candidates=None) -> JointAssignment:
    """Choose the round's joint assignment.

    eps_mats and ucb_baseline arg-maximize their score vector by variable
    elimination; random draws each agent's arm uniformly (ascending agent
    order). When `candidates` is given (a restricted action set exposed
    by the environment), the argmax or the uniform draw ranges over that
    explicit set instead of the full product space.
    """
    if cfg.kind == "random":
        if candidates is not None:
            return candidates.sample(rng)
        return tuple(rng.randrange(k) for k in h.arm_counts)
    if cfg.kind == "eps_mats":
        scores = sample_scores(stats, cfg, rng, tally)
    else:
        scores = ucb_scores(stats, t, cfg)
    res = ve_argmax(h, scores) if candidates is None else candidates.argmax(scores)
    if tally is not None:
        tally.argmax_ops += res.op_count
    return res.argmax


def update_stats(stats: LocalArmStats, h: Hypergraph, arms: Sequence[int],
                 rewards: Sequence[float]) -> LocalArmStats:
    """Fold one round of observed local rewards into the running means:
    mu_hat[j] <- (n[j] * mu_hat[j] + reward_e) / (n[j] + 1), n[j] += 1
    for the flat index j each group touched. Mutates and returns stats;
    an invalid `arms` or `rewards` raises ValueError before any change.
    """
    validate_assignment(h, arms)
    if len(rewards) != h.num_groups:
        raise ValueError(
            f"reward vector has length {len(rewards)}, expected {h.num_groups}")
    return update_stats_at(stats, h.flat_indices(arms), rewards)


def update_stats_at(stats: LocalArmStats, flat: Sequence[int],
                    rewards: Sequence[float]) -> LocalArmStats:
    n = stats.n
    mu = stats.mu_hat
    for j, r in zip(flat, rewards):
        nj = n[j]
        mu[j] = (nj * mu[j] + r) / (nj + 1)
        n[j] = nj + 1
    return stats
