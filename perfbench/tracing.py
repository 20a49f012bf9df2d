"""Per-layer tracing from outside the program.

The traced run replaces the layer functions with timing wrappers at
runtime and restores them afterwards; nothing under src/ knows about
it. Spans nest: each wrapper charges its duration to its parent, so a
span's self time is its duration minus the time of the spans it caused.
Spans are folded into per-name totals as they end rather than stored.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from mamab import elimination, environments, harness, policies
from mamab.environments import RestrictedCandidates
from mamab.hypergraph import Hypergraph

# (span name, owner, attribute). Harness-loop callees are wrapped where
# the harness looks them up, so the spans sit on the layer boundary.
TARGETS = (
    ("harness", harness, "run_experiment"),
    ("harness", harness, "first_optimal_pull"),
    ("policies.select_arm", harness, "select_arm"),
    ("policies.sample_scores", policies, "sample_scores"),
    ("policies.ucb_scores", policies, "ucb_scores"),
    ("policies.update_stats", harness, "update_stats_at"),
    ("elimination.ve_argmax", policies, "ve_argmax"),
    ("elimination.brute_argmax", environments, "brute_argmax"),
    ("elimination.schedule_build", elimination, "_build_schedule"),
    ("hypergraph.flat_indices", Hypergraph, "flat_indices"),
    ("environments.sample_rewards", harness, "sample_rewards_at"),
    ("environments.regret_at", harness, "regret_at"),
    ("environments.candidates_argmax", RestrictedCandidates, "argmax"),
)
SPAN_NAMES = frozenset(name for name, _, _ in TARGETS) | {"environments.build"}

# a refactor that routes round work around the spans shows as harness
# self time; below this covered share the traced run refuses its numbers
MIN_COVERAGE = 0.6


class Tracer:
    """Folds nested spans into per-name call counts, total and self time
    (ns), and work counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._children = []     # one child-time accumulator per open span

    def wrap(self, name, fn):
        clock = self.clock
        children = self._children

        def span(*args, **kwargs):
            start = clock()
            children.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.total_ns[name] += duration
                self.self_ns[name] += duration - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += duration
        return span

    def coverage(self) -> float:
        """Share of the harness span covered by child spans."""
        total = self.total_ns["harness"]
        return 1.0 - self.self_ns["harness"] / total if total else 0.0


def _counting(tracer, name, fn):
    """Adds work counters at the boundary: Gaussian draws per
    sample_scores call (through a tally when the caller passes none)
    and reward draws per sample_rewards_at call."""
    counts = tracer.counts
    if name == "policies.sample_scores":
        def sample_scores(stats, cfg, rng, tally=None):
            own = policies.WorkTally() if tally is None else tally
            before = own.gaussian_draws
            scores = fn(stats, cfg, rng, own)
            counts["policies.gaussian_draws"] += own.gaussian_draws - before
            return scores
        return sample_scores
    if name == "environments.sample_rewards":
        def sample_rewards_at(env, flat, rng):
            rewards = fn(env, flat, rng)
            counts["environments.reward_draws"] += len(rewards)
            return rewards
        return sample_rewards_at
    return fn


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
    try:
        for name, owner, attr in TARGETS:
            setattr(owner, attr, tracer.wrap(name, _counting(tracer, name, getattr(owner, attr))))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_check(tracer: Tracer, expected) -> list[str]:
    """Every expected span was called, no other span was, and the
    harness span is covered by its children."""
    problems = [f"span {name} saw no calls" for name in sorted(expected)
                if not tracer.calls[name]]
    problems += [f"span {name} saw {tracer.calls[name]} unexpected calls"
                 for name in sorted(SPAN_NAMES - expected) if tracer.calls[name]]
    if tracer.coverage() < MIN_COVERAGE:
        problems.append(f"trace coverage {tracer.coverage():.3f} < {MIN_COVERAGE}")
    return problems


def layer_metrics(tracer: Tracer, workload, result) -> dict:
    """Per-layer numbers of one traced pass; times are self seconds."""
    def self_s(name):
        return tracer.self_ns[name] / 1e9

    horizon = {exp.label: exp.horizon for exp in workload.experiments}
    # first pulls with censored calls counted as T + 1
    pulls = [horizon[label] + 1 if h is None else h
             for label, hits in result.first_pulls.items() for h in hits]
    censored = sum(h is None for hits in result.first_pulls.values() for h in hits)
    gates = sum(rounds * a_loc for exp, rounds, a_loc
                in zip(workload.experiments, result.rounds, result.local_arms)
                if exp.policy.kind == "eps_mats")
    gaussian = tracer.counts["policies.gaussian_draws"]
    cells = result.argmax_cells
    return {
        "harness.self_s": self_s("harness"),
        "harness.trials": result.units,
        "harness.rounds": sum(result.rounds),
        "harness.censored_frac": censored / len(pulls) if pulls else 0.0,
        "harness.first_pull_median": statistics.median(pulls) if pulls else 0.0,
        "policies.select_arm_s": self_s("policies.select_arm"),
        "policies.sample_scores_s": self_s("policies.sample_scores"),
        "policies.ucb_scores_s": self_s("policies.ucb_scores"),
        "policies.update_stats_s": self_s("policies.update_stats"),
        "policies.gate_draws": gates,
        "policies.gaussian_draws": gaussian,
        "policies.gaussian_per_gate": gaussian / gates if gates else 0.0,
        "elimination.ve_argmax_s": self_s("elimination.ve_argmax"),
        "elimination.ve_calls": tracer.calls["elimination.ve_argmax"],
        "elimination.brute_argmax_s": self_s("elimination.brute_argmax"),
        "elimination.schedule_build_s": self_s("elimination.schedule_build"),
        "elimination.cells": cells,
        "elimination.ns_per_cell": (tracer.self_ns["elimination.ve_argmax"] / cells
                                    if cells else 0.0),
        "hypergraph.flat_indices_s": self_s("hypergraph.flat_indices"),
        "hypergraph.flat_indices_calls": tracer.calls["hypergraph.flat_indices"],
        "environments.build_s": self_s("environments.build"),
        "environments.sample_rewards_s": self_s("environments.sample_rewards"),
        "environments.reward_draws": tracer.counts["environments.reward_draws"],
        "environments.regret_at_s": self_s("environments.regret_at"),
        "environments.candidates_argmax_s": self_s("environments.candidates_argmax"),
        "trace.coverage": tracer.coverage(),
    }

