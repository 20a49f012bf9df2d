"""Decision policies over local-arm statistics.

Three policy kinds share one interface:

* ``eps_mats``: per local arm, with probability epsilon the score is a
  posterior sample Normal(mu_hat, c / (n + 1)); otherwise the score is
  the empirical mean itself. epsilon = 1 is full posterior-sampling
  coordination (Thompson sampling on every local arm, every round);
  smaller epsilon trades exploration for speed.
* ``ucb_baseline``: optimism bonus added to each local mean. This is a
  plain UCB-style construction for comparison runs, not a faithful
  reimplementation of any published multi-agent UCB method. The bonus
  halves ln(t * A_loc) once a row and divides by n + 1: halving is exact
  and so is n + 1 as a float, so the one rounded quotient has the bits
  of ln(t * A_loc) / (2 (n + 1)).
* ``random``: uniform independent arm per agent.

All randomness comes from the caller's ``TrialDraws`` (see
``mamab.draws``), where every number is an address. An eps_mats round
takes the next A_loc slots of the trial's slot axis; the gate passes
among them are drawn as geometric gaps, and pass k of the trial takes
score normal k. So a round costs one normal per pass plus a copy of the
means, and the cost falls with epsilon. The random policy takes one
choice uniform u per agent and plays floor(u * K_i). This makes every
run reproducible from (config, seed) alone.

Stats come in two layouts, chosen once per trial by ``wide_rows``. A
trial whose rows draw at least WIDE_ROW scores on average (A_loc under
ucb_baseline, epsilon * A_loc under eps_mats) is wide: its counts and
means are numpy arrays, and a score row is one array expression over
them (or over the gate passes). Other trials keep Python lists, whose
per-slot loops cost less on short rows. Both give the same bits: IEEE
sums, products, quotients and square roots round alike element by
element. WIDE_ROW is the crossover that ``tools/bench_pair.py
--row-costs`` measured for one whole round (score row, argmax hand-off,
update): 77-102 scores a row on a 2-vCPU machine, rounded up to 128.

The layouts differ only where their arithmetic does: a score row
branches on the layout for its row expression alone, and the update
folds each reward slot by slot through ``LocalArmStats.views``, the
lists or memoryviews of the arrays, which read and write Python ints
and floats with the arrays' own bits. A wide round that touches at
least SCATTER_GROUPS groups scatters instead: the crossover that
``--row-costs`` measured for the update alone (``update_crossover``).

A wide trial reads each posterior scale sqrt(c / (n + 1)) by pull count
from a table of the trial's stats, built for its c with the formula's
own steps (int64 counts, + 1, c / count, sqrt), so every entry has the
formula's bits. The table grows when a count first passes its end,
which numpy's bounds-checked index reports, so no row scans the counts.
Narrow rows keep the formula: a table there made a 36-slot row cost the
same at epsilon 1 and 0.5, and acceptance criterion 6 needs the cost to
rise with epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .draws import TrialDraws
from .elimination import ve_argmax
from .hypergraph import Hypergraph, JointAssignment, validate_assignment

POLICY_KINDS = ("eps_mats", "ucb_baseline", "random")

# scores a row from which a trial's stats are numpy arrays (module docstring)
WIDE_ROW = 128
# groups a round from which a wide update scatters (module docstring)
SCATTER_GROUPS = 32


@dataclass(frozen=True)
class PolicyConfig:
    """Hyperparameters for one policy.

    epsilon is meaningful for eps_mats only and must lie in (0, 1], the
    range the gates are drawn for. c > 0 scales the posterior variance.
    ucb_range > 0 scales the ucb_baseline bonus. Both must be finite: an
    infinite scale drowns every mean and plays near-uniformly.
    """

    kind: str
    epsilon: Optional[float] = None
    c: Optional[float] = None
    ucb_range: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "eps_mats":
            if self.epsilon is None or not 0.0 < self.epsilon <= 1.0:
                raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError(f"c must be positive and finite, got {self.c}")
        elif self.kind == "ucb_baseline":
            if self.ucb_range is None or not 0 < self.ucb_range < math.inf:
                raise ValueError(
                    f"ucb_range must be positive and finite, got {self.ucb_range}")


@dataclass(frozen=True)
class LocalArmStats:
    """Pull counts and empirical means per flat local arm, the entire
    mutable state a policy carries between rounds: lists, or in the wide
    layout 1-D arrays of an integer dtype and of native float64. The
    fields are frozen, so they are checked and viewed once, and `views`
    holds the lists themselves or memoryviews of the arrays, through
    which one per-slot loop updates both layouts (module docstring)."""

    n: list[int] | np.ndarray
    mu_hat: list[float] | np.ndarray
    wide: bool = field(init=False, repr=False, compare=False)
    views: tuple = field(init=False, repr=False, compare=False)
    # wide layout: (c, sqrt(c / (k + 1)) for k = 0 .. len - 1), see `scales`
    scale_table: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        n, mu = self.n, self.mu_hat
        wide = type(mu) is np.ndarray
        if (type(n) is np.ndarray) != wide or len(n) != len(mu):
            raise ValueError(f"pull counts {type(n).__name__}[{len(n)}] and means "
                             f"{type(mu).__name__}[{len(mu)}] differ in layout or length")
        # a fractional count would be sampled at its own scale, and the
        # wide layout indexes its scale table by count; a memoryview
        # indexes only 1-D arrays in native byte order, and other means
        # would truncate or re-round the fold
        if wide:
            if n.ndim != 1 or mu.ndim != 1:
                raise ValueError(f"pull counts and means must be 1-D, got shapes "
                                 f"{n.shape} and {mu.shape}")
            if not np.issubdtype(n.dtype, np.integer) or not n.dtype.isnative:
                raise ValueError(f"pull counts must be integers in native byte order, "
                                 f"got dtype {n.dtype}")
            if mu.dtype != np.float64:
                raise ValueError(f"means must be native float64, got dtype {mu.dtype}")
        else:
            bad = next((k for k in n if type(k) is not int), None)
            if bad is not None:
                raise ValueError(f"pull counts must be integers, got {bad!r}")
        # a count of -1 would make the divisor n + 1 zero
        low = int(n.min(initial=0)) if wide else min(n, default=0)
        if low < 0:
            raise ValueError(f"pull counts must be >= 0, got {low}")
        object.__setattr__(self, "wide", wide)
        object.__setattr__(self, "views", (memoryview(n), memoryview(mu)) if wide else (n, mu))

    @classmethod
    def fresh(cls, num_local_arms: int, wide: bool = False) -> "LocalArmStats":
        if wide:
            return cls(n=np.zeros(num_local_arms, dtype=np.int64),
                       mu_hat=np.zeros(num_local_arms))
        return cls(n=[0] * num_local_arms, mu_hat=[0.0] * num_local_arms)

    def __len__(self) -> int:
        return len(self.n)

    def scales(self, c: float, counts: np.ndarray) -> np.ndarray:
        """Wide layout: sqrt(c / (k + 1)) for each count k of `counts`,
        read from the table, which is rebuilt for a new c and grown when
        a count passes its end."""
        key, table = self.scale_table
        if key == c:
            try:
                return table[counts]
            except IndexError:
                pass
        k = np.arange(2 * (int(counts.max(initial=0)) + 1), dtype=np.int64)
        table = np.sqrt(c / (k + 1))
        object.__setattr__(self, "scale_table", (c, table))
        return table[counts]


@dataclass
class WorkTally:
    """Accumulates per-trial work counters."""

    gaussian_draws: int = 0
    argmax_ops: int = 0


def wide_rows(cfg: PolicyConfig, width: int) -> bool:
    """Whether a trial of rows of `width` slots draws at least WIDE_ROW
    scores a row on average: width under ucb_baseline, epsilon * width
    under eps_mats, none under random."""
    if cfg.kind == "random":
        per_row = 0.0
    elif cfg.kind == "ucb_baseline":
        per_row = width
    else:
        per_row = cfg.epsilon * width
    return per_row >= WIDE_ROW


def sample_scores(stats: LocalArmStats, cfg: PolicyConfig, rng: TrialDraws,
                  tally: Optional[WorkTally] = None) -> list[float] | np.ndarray:
    """Score vector for eps_mats: a copy of mu_hat in which each slot
    whose gate passes holds mu_hat[j] + sqrt(c / (n[j] + 1)) * z, with z
    the pass's normal. At epsilon = 1 every slot passes and the row is
    built whole. Wide stats give an array of the same bits (a wide `rng`
    gives the normals and passes as arrays)."""
    mu = stats.mu_hat
    n = stats.n
    c = cfg.c
    passes = rng.passes(cfg.epsilon, len(mu)) if cfg.epsilon < 1.0 else None
    z = rng.scores.take(len(mu) if passes is None else len(passes))
    if tally is not None:
        tally.gaussian_draws += len(z)
    sqrt = math.sqrt
    if passes is None:
        if stats.wide:
            return mu + stats.scales(c, n) * z
        return [m + sqrt(c / (nj + 1)) * x for m, nj, x in zip(mu, n, z)]
    scores = mu.copy()
    if stats.wide:
        scores[passes] = mu[passes] + stats.scales(c, n[passes]) * z
    else:
        for j, x in zip(passes, z):
            scores[j] = mu[j] + sqrt(c / (n[j] + 1)) * x
    return scores


def ucb_scores(stats: LocalArmStats, t: int, cfg: PolicyConfig) -> list[float] | np.ndarray:
    """Optimistic score per local arm:
    mu_hat[j] + ucb_range * sqrt(ln(t * A_loc) / (2 * (n[j] + 1))),
    computed as sqrt(half_log / (n[j] + 1)) with half_log = ln(t * A_loc) / 2
    (module docstring). Wide stats give an array of the same bits.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    scale = cfg.ucb_range
    half_log = math.log(t * len(stats)) / 2.0
    if stats.wide:
        return stats.mu_hat + scale * np.sqrt(half_log / (stats.n + 1))
    sqrt = math.sqrt
    return [m + scale * sqrt(half_log / (nj + 1)) for m, nj in zip(stats.mu_hat, stats.n)]


def select_arm(h: Hypergraph, stats: LocalArmStats, cfg: PolicyConfig, t: int,
               rng: TrialDraws, tally: Optional[WorkTally] = None,
               candidates=None) -> JointAssignment:
    """Choose the round's joint assignment.

    eps_mats and ucb_baseline arg-maximize their score vector by variable
    elimination; random plays floor(u * K_i) for agent i, with u the
    round's choice uniforms in ascending agent order. When `candidates`
    is given (a restricted action set exposed by the environment), the
    argmax or the uniform draw ranges over that explicit set instead of
    the full product space.
    """
    if cfg.kind == "random":
        if candidates is not None:
            return candidates.sample(rng)
        return tuple(int(u * k) for u, k in zip(rng.choices.take(h.num_agents), h.arm_counts))
    if cfg.kind == "eps_mats":
        scores = sample_scores(stats, cfg, rng, tally)
    else:
        scores = ucb_scores(stats, t, cfg)
    if candidates is not None:
        res = candidates.argmax(scores)
    else:
        res = ve_argmax(h, scores.tolist() if stats.wide else scores)
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
    if stats.wide and len(flat) >= SCATTER_GROUPS:
        # a round's flat indices never repeat, so one scatter is the loop
        n = stats.n
        mu = stats.mu_hat
        size = len(flat)
        j = np.fromiter(flat, np.int64, count=size)
        nj = n[j]
        n1 = nj + 1
        mu[j] = (nj * mu[j] + np.fromiter(rewards, np.float64, count=size)) / n1
        n[j] = n1
        return stats
    n, mu = stats.views
    for j, r in zip(flat, rewards):
        nj = n[j]
        mu[j] = (nj * mu[j] + r) / (nj + 1)
        n[j] = nj + 1
    return stats
