"""Seeded trial execution and cross-trial aggregation.

A trial owns its policy state and a ``TrialDraws`` keyed by the trial
seed, which gives every random number of the trial by address (see
``mamab.draws``); the environment is shared read-only. Trials inside
an experiment use seeds base_seed + i and are fully independent, so
neither execution order nor the trial count can change a trial's
output. The library runs them sequentially; parallel orchestration is
the caller's business and must not alter results.

Cumulative regret is recorded as the gap of means (pseudo-regret), not
realized-reward regret: it is variance-free, which keeps desk-scale
trial counts meaningful. Wall time is measured around the round loop
only, excluding environment construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .draws import TrialDraws
from .environments import Environment, regret_at, sample_rewards_at
from .policies import (LocalArmStats, PolicyConfig, WorkTally, select_arm, update_stats_at,
                       wide_rows)


@dataclass(frozen=True)
class RegretTrace:
    """Per-trial outcome: cumulative pseudo-regret at each checkpoint,
    plus work counters."""

    trial_seed: int
    checkpoints: tuple[tuple[int, float], ...]
    gaussian_draws: int
    argmax_ops: int
    wall_ns: int


@dataclass(frozen=True)
class ExperimentSummary:
    ts: tuple[int, ...]
    mean_cum_regret: tuple[float, ...]
    std_cum_regret: tuple[float, ...]
    mean_wall_ns: float
    mean_gaussian_draws: float
    num_trials: int


@dataclass(frozen=True)
class ExperimentSpec:
    env: Environment
    policy: PolicyConfig
    horizon: int
    trials: int
    base_seed: int
    log_every: int


@dataclass(frozen=True)
class ExperimentResult:
    summary: ExperimentSummary
    traces: tuple[RegretTrace, ...]


def _rounds(env: Environment, cfg: PolicyConfig, horizon: int, seed: int,
            tally: Optional[WorkTally] = None):
    """The round loop: select, index, yield (t, arms, flat) to the caller,
    then draw the rewards and update. A caller that stops iterating skips
    that round's reward draw. The trial's stats layout is chosen once, by
    `wide_rows`. The layer functions are looked up as module globals on
    every round, so a profiler can wrap them."""
    graph = env.graph
    wide = wide_rows(cfg, graph.num_local_arms)
    rng = TrialDraws(seed, wide)
    stats = LocalArmStats.fresh(graph.num_local_arms, wide)
    candidates = env.candidates
    for t in range(1, horizon + 1):
        arms = select_arm(graph, stats, cfg, t, rng, tally, candidates)
        flat = graph.flat_indices(arms)
        yield t, arms, flat
        update_stats_at(stats, flat, sample_rewards_at(env, flat, rng))


def run_trial(env: Environment, cfg: PolicyConfig, horizon: int, seed: int,
              log_every: int) -> RegretTrace:
    """Run select -> observe -> update for `horizon` rounds.

    Checkpoints land every `log_every` rounds and always at the final
    round. Deterministic given (environment, cfg, seed).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if log_every < 1:
        raise ValueError(f"log_every must be >= 1, got {log_every}")
    tally = WorkTally()
    cum = 0.0
    checkpoints = []
    start = time.perf_counter_ns()
    for t, _arms, flat in _rounds(env, cfg, horizon, seed, tally):
        cum += regret_at(env, flat)
        if t % log_every == 0:
            checkpoints.append((t, cum))
    wall = time.perf_counter_ns() - start
    if not checkpoints or checkpoints[-1][0] != horizon:
        checkpoints.append((horizon, cum))
    return RegretTrace(trial_seed=seed, checkpoints=tuple(checkpoints),
                       gaussian_draws=tally.gaussian_draws,
                       argmax_ops=tally.argmax_ops, wall_ns=wall)


def summarize(traces: list[RegretTrace] | tuple[RegretTrace, ...]) -> ExperimentSummary:
    """Reduction across trials: per-checkpoint mean and sample standard
    deviation (0 for a single trial). Traces are ordered by trial seed
    before reducing, so the caller's ordering cannot affect any output."""
    if not traces:
        raise ValueError("need at least one trace")
    traces = sorted(traces, key=lambda tr: tr.trial_seed)
    ts = tuple(t for t, _ in traces[0].checkpoints)
    for trace in traces:
        if tuple(t for t, _ in trace.checkpoints) != ts:
            raise ValueError("traces have mismatched checkpoint grids")
    regret = np.array([[r for _, r in trace.checkpoints] for trace in traces],
                      dtype=np.float64)
    mean = regret.mean(axis=0)
    if len(traces) > 1:
        std = regret.std(axis=0, ddof=1)
    else:
        std = np.zeros_like(mean)
    return ExperimentSummary(
        ts=ts,
        mean_cum_regret=tuple(float(x) for x in mean),
        std_cum_regret=tuple(float(x) for x in std),
        mean_wall_ns=float(np.mean([t.wall_ns for t in traces])),
        mean_gaussian_draws=float(np.mean([t.gaussian_draws for t in traces])),
        num_trials=len(traces),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run spec.trials independent trials with seeds base_seed + i and
    aggregate them."""
    if spec.trials < 1:
        raise ValueError(f"trials must be >= 1, got {spec.trials}")
    traces = tuple(
        run_trial(spec.env, spec.policy, spec.horizon, spec.base_seed + i,
                  spec.log_every)
        for i in range(spec.trials)
    )
    return ExperimentResult(summary=summarize(traces), traces=traces)


def first_optimal_pull(env: Environment, cfg: PolicyConfig, horizon: int,
                       seed: int) -> Optional[int]:
    """Round index of the first pull of the environment's optimal
    assignment, or None if it never happens within the horizon.

    Intended for posterior-sampling policies on restricted-action
    environments. The loop ends at the first optimal selection; that
    cuts no result short, because selection at round t depends only on
    rounds before t.
    """
    if cfg.kind != "eps_mats":
        raise ValueError("first_optimal_pull expects an eps_mats policy")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    optimal = env.optimal_assignment
    for t, arms, _flat in _rounds(env, cfg, horizon, seed):
        if arms == optimal:
            return t
    return None


def median_first_optimal_pull(env: Environment, cfg: PolicyConfig, horizon: int,
                              base_seed: int, trials: int) -> float:
    """Median over trials, counting a never-pulled optimum (censored) as
    horizon + 1, the largest value, so the loop stops at a censored majority."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    values = []
    censored = 0
    for i in range(trials):
        hit = first_optimal_pull(env, cfg, horizon, base_seed + i)
        censored += hit is None
        if censored > trials // 2:
            return float(horizon + 1)
        values.append(float(hit) if hit is not None else float(horizon + 1))
    return float(np.median(values))
