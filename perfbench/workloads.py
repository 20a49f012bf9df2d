"""The benchmark's workloads and the checks on their outputs.

Workloads are built only from the public mamab API. Each one is a fixed
set of environments plus a list of experiments. The workload seed picks
the trial base seeds and nothing else: environment instances are the
same for every seed, so the work done per round does not depend on it.

Harness and builder calls go through module attributes (`harness.X`,
`environments.X`) so that the traced run can wrap them at runtime.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from mamab import elimination, environments, harness
from mamab.policies import PolicyConfig

RANDOM = PolicyConfig("random")


def eps_mats(epsilon: float, horizon: int) -> PolicyConfig:
    """eps_mats with the acceptance suite's variance scale c = ln T."""
    return PolicyConfig("eps_mats", epsilon=epsilon, c=math.log(horizon))


@dataclass(frozen=True)
class Experiment:
    """One harness call: `run_experiment` with `units` trials, or
    `units` calls of `first_optimal_pull` (stop-early) when
    `first_pull` is set."""

    label: str
    env: str
    policy: PolicyConfig
    horizon: int
    units: int
    first_pull: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], dict]
    experiments: tuple[Experiment, ...]
    # optimum of each environment whose joint space exceeds the brute cap
    known_optima: dict = field(default_factory=dict)
    # spans the traced run must see called; every other wrapped span must not be
    spans: frozenset = frozenset()
    # set-up dominated by numpy, which the slow phases barely affect: timed
    # in plain seconds rather than scaled by the Python reference slice
    numpy_setup: bool = False


LOOP_SPANS = frozenset({"harness", "policies.select_arm", "hypergraph.flat_indices",
                        "environments.sample_rewards", "policies.update_stats",
                        "environments.build", "elimination.schedule_build"})

ACCEPTANCE_T = 2000
ACCEPTANCE_TRIALS = 3
CHAIN100_T = 1000
RESTRICTED_T = 500
BRUTE_T = 500
BRUTE_TRIALS = 3

# set-up repeats per pass: millisecond set-ups are timed many times,
# second-long ones once
SETUP_REPS = 25
SETUP_BUDGET_S = 0.25


def _acceptance_envs():
    return {"chain10": environments.chain_env(10, 2, "bernoulli"),
            "gem5": environments.gem_mining_env(5, random.Random(42))}


def _chain100_envs():
    return {"chain100": environments.chain_env(100, 2, "poisson")}


def _restricted_envs():
    return {f"rho{rho}": environments.lower_bound_env(
                rho, environments.decoys_per_group(rho), 3.5, 0.5)
            for rho in (1, 2, 4)}


def _brute_envs():
    return {f"chain20_d{d}": environments.chain_env(20, d, "bernoulli") for d in (2, 3)}


WORKLOADS = {w.name: w for w in (
    Workload(
        "acceptance_mix", _acceptance_envs,
        tuple(Experiment(f"chain10_eps{e}", "chain10", eps_mats(e, ACCEPTANCE_T),
                         ACCEPTANCE_T, ACCEPTANCE_TRIALS)
              for e in (1.0, 0.5, 0.1, 0.05, 0.01))
        + (Experiment("chain10_random", "chain10", RANDOM, ACCEPTANCE_T, ACCEPTANCE_TRIALS),
           Experiment("gem5_eps0.1", "gem5", eps_mats(0.1, ACCEPTANCE_T),
                      ACCEPTANCE_T, ACCEPTANCE_TRIALS),
           Experiment("gem5_random", "gem5", RANDOM, ACCEPTANCE_T, ACCEPTANCE_TRIALS)),
        spans=LOOP_SPANS | {"policies.sample_scores", "elimination.ve_argmax",
                            "environments.regret_at", "elimination.brute_argmax"}),
    Workload(
        "chain100_single", _chain100_envs,
        tuple(Experiment(f"chain100_ucb_{i}", "chain100",
                         PolicyConfig("ucb_baseline", ucb_range=1.0), CHAIN100_T, 1)
              for i in range(3)),
        known_optima={"chain100": tuple(i % 2 for i in range(100))},
        spans=LOOP_SPANS | {"policies.ucb_scores", "elimination.ve_argmax",
                            "environments.regret_at"}),
    Workload(
        "restricted_first_pull", _restricted_envs,
        tuple(Experiment(f"rho{rho}", f"rho{rho}",
                         PolicyConfig("eps_mats", epsilon=1.0, c=1.0),
                         RESTRICTED_T, units, first_pull=True)
              for rho, units in ((1, 20), (2, 8), (4, 6))),
        known_optima={"rho4": (0, 0, 0, 0)},
        spans=LOOP_SPANS | {"policies.sample_scores", "environments.candidates_argmax",
                            "elimination.brute_argmax"}),
    Workload(
        "brute_setup", _brute_envs,
        # three calls per chain rather than one: more, shorter timed calls
        # average out the reference clock's jitter
        tuple(Experiment(f"chain20_d{d}_eps0.1_{i}", f"chain20_d{d}", eps_mats(0.1, BRUTE_T),
                         BRUTE_T, BRUTE_TRIALS)
              for d in (2, 3) for i in range(3)),
        spans=LOOP_SPANS | {"policies.sample_scores", "elimination.ve_argmax",
                            "environments.regret_at", "elimination.brute_argmax"},
        numpy_setup=True),
)}


def base_seeds(workload: Workload, seed: int) -> list[int]:
    """One trial base seed per experiment, derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in workload.experiments]


def setup(workload: Workload):
    """Build the environments and make the first argmax call on each,
    which builds the VE schedule. Returns (envs, argmax cells per round)."""
    envs = workload.build()
    cells = {}
    for key, env in envs.items():
        zeros = [0.0] * env.graph.num_local_arms
        if env.candidates is None:
            cells[key] = elimination.ve_argmax(env.graph, zeros).op_count
        else:
            cells[key] = env.candidates.argmax(zeros)[2]
    return envs, cells


# ---------------------------------------------------------------------
# output checks; each returns a list of problems, empty when all hold
# ---------------------------------------------------------------------

def check_optimum(env, known=None) -> list[str]:
    """The environment's optimum against brute force where the joint
    space allows it, else against the known optimal assignment."""
    graph = env.graph
    if graph.num_joint_arms <= elimination.DEFAULT_BRUTE_CAP:
        expected = elimination.brute_argmax(graph, list(env.means)).argmax
    elif known is not None:
        expected = known
    else:
        return [f"{env.name}: no reference optimum"]
    if env.optimal_assignment != expected:
        return [f"{env.name}: optimum {env.optimal_assignment} != {expected}"]
    return []


def check_trace(tr, exp: Experiment, num_local_arms: int, cells_per_round: int) -> list[str]:
    """One run_experiment trial: checkpoints >= 0, monotone and ending at
    T; Gaussian draws within 6 sigma of eps * A_loc * T; argmax cells
    equal to cells per round times T."""
    problems = []
    ts = [t for t, _ in tr.checkpoints]
    regret = [r for _, r in tr.checkpoints]
    if not ts or ts[-1] != exp.horizon or any(a >= b for a, b in zip(ts, ts[1:])):
        problems.append(f"checkpoint rounds {ts} do not rise to T={exp.horizon}")
    if any(r < 0 for r in regret) or any(a > b for a, b in zip(regret, regret[1:])):
        problems.append(f"regret {regret} is negative or not monotone")
    policy = exp.policy
    if policy.kind == "eps_mats":
        n = num_local_arms * exp.horizon
        sigma = math.sqrt(n * policy.epsilon * (1.0 - policy.epsilon))
        if abs(tr.gaussian_draws - policy.epsilon * n) > 6.0 * sigma:
            problems.append(f"{tr.gaussian_draws} Gaussian draws, expected "
                            f"{policy.epsilon * n:.0f} +- {6 * sigma:.0f}")
    elif tr.gaussian_draws != 0:
        problems.append(f"{tr.gaussian_draws} Gaussian draws under {policy.kind}")
    cells = 0 if policy.kind == "random" else cells_per_round * exp.horizon
    if tr.argmax_ops != cells:
        problems.append(f"{tr.argmax_ops} argmax cells, expected {cells}")
    return [f"{exp.label} seed {tr.trial_seed}: {p}" for p in problems]


def check_first_pull(hit, exp: Experiment) -> list[str]:
    if hit is None or (type(hit) is int and 1 <= hit <= exp.horizon):
        return []
    return [f"{exp.label}: first pull {hit!r} outside [1, {exp.horizon}]"]


# ---------------------------------------------------------------------
# reference clock
# ---------------------------------------------------------------------

# On a shared 2-vCPU virtual machine, Python loops run up to half slower
# in phases seconds long (shared cores, frequency changes), which swamps
# run-to-run comparison. So each timed call is followed by a fixed pure-Python
# reference slice, and its duration is scaled by REF_SLICE_S over the
# mean of the slices just before and after it: reported times are in
# these reference seconds. A numpy-bound set-up (Workload.numpy_setup)
# stays in plain seconds: the phases barely slow it, and scaling it by
# a Python loop tripled its spread.
REF_SLICE_S = 0.01
REF_ITERS = 16000


def reference_slice() -> float:
    """Seconds taken by a fixed loop of Gaussian draws, comparisons and
    list updates, the mix the simulator's rounds are made of."""
    rng = random.Random(12345)
    gauss = rng.gauss
    uniform = rng.random
    table = [0.0] * 64
    best = 0
    start = time.perf_counter()
    for i in range(REF_ITERS):
        j = i & 63
        v = gauss(table[j], 1.0) if uniform() < 0.5 else table[j]
        if v > table[best]:
            best = j
        table[j] = (table[j] * 3.0 + v) * 0.25
    return time.perf_counter() - start


class RefTimer:
    """Times calls and scales them to reference seconds."""

    def __init__(self):
        self.last = reference_slice()

    def __call__(self, fn, *args):
        """(fn(*args), raw seconds, reference seconds)."""
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        ref = reference_slice()
        scaled = raw * 2.0 * REF_SLICE_S / (self.last + ref)
        self.last = ref
        return out, raw, scaled


# ---------------------------------------------------------------------
# one pass: set up, then every experiment once
# ---------------------------------------------------------------------

@dataclass
class PassResult:
    setup_s: float
    raw_s: float                                           # set-up + harness, plain
    harness_s: list[float] = field(default_factory=list)   # per experiment, reference s
    rounds: list[int] = field(default_factory=list)        # per experiment
    local_arms: list[int] = field(default_factory=list)    # per experiment
    regret: list[float] = field(default_factory=list)      # per experiment
    first_pulls: dict = field(default_factory=dict)        # label -> hits
    units: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    argmax_cells: int = 0
    gaussian_draws: int = 0
    digest: str = ""

    @property
    def wall_s(self) -> float:
        """Set-up plus all harness calls."""
        return self.setup_s + sum(self.harness_s)

    @property
    def rounds_per_s(self) -> float:
        """Inverse of the mean per-round time over the experiments, so
        each experiment weighs the same however long its stop-early
        trials happened to run."""
        per_round = [t / r for t, r in zip(self.harness_s, self.rounds) if r]
        return len(per_round) / sum(per_round) if per_round else 0.0


def run_pass(workload: Workload, seeds: list[int], setup_fn=setup,
             bad_envs=frozenset(), setup_reps: int = SETUP_REPS) -> PassResult:
    """Set up (repeatedly while set-up is cheap, keeping the median
    time), run every experiment once, then check and digest the outputs.
    Units on an environment in `bad_envs` count as failed."""
    timer = RefTimer()
    raw_setups, setups = [], []
    while len(setups) < setup_reps and sum(raw_setups) < SETUP_BUDGET_S:
        (envs, cells), raw, scaled = timer(setup_fn, workload)
        raw_setups.append(raw)
        setups.append(raw if workload.numpy_setup else scaled)
    res = PassResult(setup_s=statistics.median(setups), raw_s=statistics.median(raw_setups))
    digest = hashlib.sha256()
    for exp, base in zip(workload.experiments, seeds):
        env = envs[exp.env]
        outputs = []
        errors = []
        spent = 0.0
        try:
            if exp.first_pull:
                for i in range(exp.units):
                    hit, raw, ref = timer(harness.first_optimal_pull,
                                          env, exp.policy, exp.horizon, base + i)
                    outputs.append(hit)
                    res.raw_s += raw
                    spent += ref
            else:
                spec = harness.ExperimentSpec(env, exp.policy, exp.horizon, exp.units,
                                              base, max(1, exp.horizon // 10))
                result, raw, spent = timer(harness.run_experiment, spec)
                res.raw_s += raw
                outputs = list(result.traces)
        except Exception:  # a raising unit is a failed unit, not a crash
            errors.append(f"{exp.label}: {traceback.format_exc(limit=3)}")
        res.harness_s.append(spent)

        res.units += exp.units
        failed = exp.units - len(outputs)
        digest.update(exp.label.encode())
        if exp.first_pull:
            res.first_pulls[exp.label] = outputs
            # every non-optimal candidate plays decoys only, whose means are
            # all X, so each round before the first optimal pull costs the
            # regret of the all-decoy assignment
            gap = environments.pseudo_regret(env, (1,) * env.graph.num_agents)
            regret = []
            rounds = 0
            for hit in outputs:
                bad = check_first_pull(hit, exp)
                errors += bad
                failed += bool(bad)
                rounds += exp.horizon if hit is None else hit
                regret.append((exp.horizon if hit is None else hit - 1) * gap)
                digest.update(repr(hit).encode())
        else:
            a_loc = env.graph.num_local_arms
            regret = []
            rounds = exp.horizon * len(outputs)
            for tr in outputs:
                bad = check_trace(tr, exp, a_loc, cells[exp.env])
                errors += bad
                failed += bool(bad)
                regret.append(tr.checkpoints[-1][1] if tr.checkpoints else math.nan)
                res.argmax_cells += tr.argmax_ops
                res.gaussian_draws += tr.gaussian_draws
                digest.update(repr([(t, r.hex()) for t, r in tr.checkpoints]).encode())
        if exp.env in bad_envs:
            failed = exp.units
            errors.append(f"{exp.label}: environment {exp.env} failed its optimum check")
        res.rounds.append(rounds)
        res.local_arms.append(env.graph.num_local_arms)
        res.regret.append(statistics.fmean(regret) if regret else math.nan)
        res.failed += failed
        res.problems += errors
    res.digest = digest.hexdigest()
    return res
