"""Reward-generating worlds.

Every environment is an immutable bundle of a coordination hypergraph,
one true mean per flat local arm, a reward family per group, and the
cached optimum of the summed means. Reward sampling takes the caller's
random stream, so concurrent trials each pass their own.

Families: ``bernoulli`` (mean in [0, 1]), ``poisson`` (mean in
[0, POISSON_MAX_MEAN], and note Poisson tails are heavier than Gaussian;
it is included for benchmark fidelity), ``gaussian`` (unit variance).

Range errors from the builders name the parameter by its config key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .elimination import DEFAULT_BRUTE_CAP, brute_argmax, ve_argmax
from .hypergraph import Hypergraph, JointAssignment, validate_assignment

FAMILIES = ("bernoulli", "poisson", "gaussian")

# Local mean tables for the pairwise chain benchmarks. Entry [a, b] is the
# mean reward when the group's lower-numbered agent plays a and the higher
# one plays b; odd-numbered groups use the transpose, which makes the
# alternating assignment starting with arm 0 the unique optimum.
BERNOULLI_PAIR_TABLE = ((0.75, 1.0), (0.25, 0.9))
POISSON_PAIR_TABLE = ((0.1, 0.3), (0.2, 0.1))

# Mean table for triple chains, indexed by the group's arm tuple. Groups
# whose start index is not a multiple of 3 look the tuple up after a left
# cyclic rotation by (start mod 3) positions; the all-ones tuple maps to
# the maximum under every rotation, so the all-ones assignment stays
# optimal. The rotation convention is this implementation's choice.
TRIPLE_TABLE = {
    (0, 0, 0): 0.5,
    (1, 0, 0): 0.9,
    (0, 1, 0): 0.8,
    (0, 0, 1): 0.2,
    (1, 1, 0): 0.6,
    (1, 0, 1): 0.3,
    (0, 1, 1): 0.4,
    (1, 1, 1): 1.0,
}

GEM_WORKER_GROWTH = 1.03

# Knuth's product-of-uniforms Poisson sampler is exact only while
# exp(-mean) is a normal double (mean < 708); larger means would draw
# from a silently truncated distribution, so they are rejected.
POISSON_MAX_MEAN = 700.0


class InvalidEnvironmentError(ValueError):
    """Invalid environment construction input."""


@dataclass(frozen=True)
class RestrictedCandidates:
    """Explicit joint-arm set for environments whose playable assignments
    are not a full product space.

    The set is the single `optimal` assignment plus every combination of
    per-agent decoy arms 1..num_decoys (all agents are singleton groups).
    argmax over the set factors through per-group maxima, which returns
    exactly what a literal scan of the enumerated candidate list returns,
    including the smallest-joint-index tie-break.
    """

    offsets: tuple[int, ...]
    num_decoys: int
    optimal: JointAssignment

    @property
    def size(self) -> int:
        return self.num_decoys ** len(self.offsets) + 1

    def __iter__(self):
        import itertools
        yield self.optimal
        rho = len(self.offsets)
        for combo in itertools.product(range(1, self.num_decoys + 1), repeat=rho):
            yield combo

    def argmax(self, scores: Sequence[float]) -> tuple[JointAssignment, float, int]:
        """Returns (assignment, value, cells_read)."""
        opt_total = 0.0
        sub_total = 0.0
        sub_arms = []
        ops = 0
        degenerate = self.num_decoys == 0
        for off in self.offsets:
            opt_total += scores[off]
            ops += 1
            if degenerate:
                continue
            best = scores[off + 1]
            best_a = 1
            for a in range(2, self.num_decoys + 1):
                v = scores[off + a]
                if v > best:
                    best = v
                    best_a = a
            ops += self.num_decoys
            sub_total += best
            sub_arms.append(best_a)
        if degenerate or sub_total <= opt_total:
            return self.optimal, opt_total, ops
        return tuple(sub_arms), sub_total, ops

    def sample(self, rng: Random) -> JointAssignment:
        """Uniform draw over the candidate list, by candidate index."""
        idx = rng.randrange(self.size)
        if idx == 0:
            return self.optimal
        idx -= 1
        rho = len(self.offsets)
        arms = [0] * rho
        for pos in range(rho - 1, -1, -1):
            arms[pos] = idx % self.num_decoys + 1
            idx //= self.num_decoys
        return tuple(arms)


@dataclass(frozen=True)
class Environment:
    graph: Hypergraph
    means: tuple[float, ...]
    families: tuple[str, ...]
    optimal_assignment: JointAssignment
    optimal_value: float
    name: str
    candidates: Optional[RestrictedCandidates] = None


def make_environment(graph: Hypergraph, means: Sequence[float],
                     families: Sequence[str], name: str,
                     candidates: Optional[RestrictedCandidates] = None,
                     ) -> Environment:
    """Validate means/families against the graph, locate the optimum, and
    freeze the environment."""
    if len(means) != graph.num_local_arms:
        raise InvalidEnvironmentError(
            f"means has length {len(means)}, expected {graph.num_local_arms}")
    if len(families) != graph.num_groups:
        raise InvalidEnvironmentError(
            f"families has length {len(families)}, expected {graph.num_groups}")
    for fam in families:
        if fam not in FAMILIES:
            raise InvalidEnvironmentError(f"unknown reward family {fam!r}")
    for e in range(graph.num_groups):
        lo = graph.local_offsets[e]
        for j in range(lo, lo + graph.group_sizes[e]):
            mean = means[j]
            if not math.isfinite(mean):
                raise InvalidEnvironmentError(f"local arm {j} has non-finite mean")
            if families[e] == "bernoulli" and not 0.0 <= mean <= 1.0:
                raise InvalidEnvironmentError(
                    f"bernoulli mean {mean} at local arm {j} outside [0, 1]")
            if families[e] == "poisson" and not 0.0 <= mean <= POISSON_MAX_MEAN:
                raise InvalidEnvironmentError(
                    f"poisson mean {mean} at local arm {j} outside "
                    f"[0, {POISSON_MAX_MEAN:g}]")

    means = tuple(float(x) for x in means)
    if graph.num_joint_arms <= DEFAULT_BRUTE_CAP:
        res = brute_argmax(graph, list(means))
        opt_arms = res.argmax
    else:
        opt_arms = ve_argmax(graph, list(means)).argmax
    # recompute in ascending group order so the cached value is bitwise
    # the value pseudo_regret reconstructs for this assignment
    opt_value = 0.0
    for j in graph.flat_indices(opt_arms):
        opt_value += means[j]
    return Environment(graph=graph, means=means, families=tuple(families),
                       optimal_assignment=opt_arms, optimal_value=opt_value,
                       name=name, candidates=candidates)


# ---------------------------------------------------------------------
# benchmark generators
# ---------------------------------------------------------------------

def chain_env(m: int, d: int, family: str) -> Environment:
    """Chain of m binary agents with overlapping groups of d consecutive
    agents (group e covers agents e..e+d-1)."""
    if d not in (2, 3):
        raise InvalidEnvironmentError(f"d must be 2 or 3, got {d}")
    if m < d:
        raise InvalidEnvironmentError(f"m must be at least d = {d}, got {m}")
    if family not in ("bernoulli", "poisson"):
        raise InvalidEnvironmentError(f"chain family must be bernoulli or poisson, got {family!r}")
    groups = [list(range(e, e + d)) for e in range(m - d + 1)]
    graph = Hypergraph(m, [2] * m, groups)

    means = []
    if d == 2:
        table = BERNOULLI_PAIR_TABLE if family == "bernoulli" else POISSON_PAIR_TABLE
        for e in range(graph.num_groups):
            for a in (0, 1):
                for b in (0, 1):
                    means.append(table[a][b] if e % 2 == 0 else table[b][a])
    else:
        for e in range(graph.num_groups):
            r = e % 3
            for t0 in (0, 1):
                for t1 in (0, 1):
                    for t2 in (0, 1):
                        arms = (t0, t1, t2)
                        key = tuple(arms[(j + r) % 3] for j in range(3))
                        means.append(TRIPLE_TABLE[key])
    return make_environment(graph, means, [family] * graph.num_groups,
                            name=f"{family}_chain_m{m}_d{d}")


def gem_mining_env(num_villages: int, rng: Random) -> Environment:
    """Villages are agents, mines are groups.

    Village i houses w_i workers (uniform on 1..5) and can staff one of
    the mines i..i+m_i-1, where m_i is uniform on 2..4 except the last
    village, which always reaches 4 mines. Choosing a mine is the
    village's arm. A mine's local arm is the tuple of its reachable
    villages' choices; its success probability is
    min(1, 1.03**(w - 1) * p) with w the workers actually sent there and
    p the mine's base probability, uniform on [0, 0.5]. A mine nobody
    staffs pays nothing.

    Generation consumes rng in a fixed order: worker counts for villages
    0..n-1, then reach counts for villages 0..n-2, then base
    probabilities per mine ascending, so one seed pins the instance.
    """
    if num_villages < 2:
        raise InvalidEnvironmentError(f"villages must be >= 2, got {num_villages}")
    n = num_villages
    workers = [rng.randint(1, 5) for _ in range(n)]
    reach = [rng.randint(2, 4) for _ in range(n - 1)] + [4]
    num_mines = max(i + reach[i] for i in range(n))
    base_p = [rng.uniform(0.0, 0.5) for _ in range(num_mines)]

    mine_members = []
    mine_ids = []
    for e in range(num_mines):
        members = [i for i in range(n) if i <= e < i + reach[i]]
        if members:
            mine_members.append(members)
            mine_ids.append(e)
    graph = Hypergraph(n, reach, mine_members)

    means = []
    for g, members in enumerate(mine_members):
        mine = mine_ids[g]
        counts = [reach[i] for i in members]
        combos = [0] * len(members)
        # walk the group's local arms in mixed-radix order
        for _ in range(graph.group_sizes[g]):
            w = sum(workers[i] for i, a in zip(members, combos) if i + a == mine)
            if w == 0:
                means.append(0.0)
            else:
                means.append(min(1.0, GEM_WORKER_GROWTH ** (w - 1) * base_p[mine]))
            for pos in range(len(members) - 1, -1, -1):
                combos[pos] += 1
                if combos[pos] < counts[pos]:
                    break
                combos[pos] = 0
    return make_environment(graph, means, ["bernoulli"] * graph.num_groups,
                            name=f"gem_mining_v{n}")


def decoys_per_group(rho: int) -> int:
    """Default number of equal-mean decoy arms per group for the
    restricted-action environment: enough that early lock-in on decoys is
    overwhelmingly likely, growing linearly with the group count."""
    if rho < 1:
        raise InvalidEnvironmentError(f"rho must be >= 1, got {rho}")
    b = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # P(N(0,1) <= 1)
    log_base = -math.log(b)
    return math.ceil(2 * math.e * (rho * math.log(2) + math.log(rho)) / log_base)


def lower_bound_env(rho: int, L: int, X: float, delta: float) -> Environment:
    """Hard restricted-action instance: rho singleton groups, each with one
    arm of mean X+delta and L decoy arms of mean X, Gaussian unit-variance
    rewards. Playable assignments are the single all-optimal one plus the
    L**rho all-decoy combinations; consumers receive this candidate set
    explicitly instead of the product space."""
    if rho < 1:
        raise InvalidEnvironmentError(f"rho must be >= 1, got {rho}")
    if L < 0:
        raise InvalidEnvironmentError(f"L must be >= 0, got {L}")
    if not 3 < X < math.inf:
        raise InvalidEnvironmentError(f"X must be finite and exceed 3, got {X}")
    if not 0 < delta < math.inf:
        raise InvalidEnvironmentError(f"delta must be positive and finite, got {delta}")
    graph = Hypergraph(rho, [L + 1] * rho, [[e] for e in range(rho)])
    means = []
    for _ in range(rho):
        means.append(X + delta)
        means.extend([X] * L)
    candidates = RestrictedCandidates(offsets=graph.local_offsets,
                                      num_decoys=L, optimal=(0,) * rho)
    return make_environment(graph, means, ["gaussian"] * rho,
                            name=f"lower_bound_rho{rho}_L{L}",
                            candidates=candidates)


# ---------------------------------------------------------------------
# reward sampling and regret
# ---------------------------------------------------------------------

def _poisson_draw(rng: Random, lam: float) -> float:
    # Knuth's product-of-uniforms method; exact up to POISSON_MAX_MEAN
    limit = math.exp(-lam)
    k = 0
    p = rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return float(k)


def sample_rewards_at(env: Environment, flat: Sequence[int],
                      rng: Random) -> list[float]:
    out = []
    for e, j in enumerate(flat):
        mean = env.means[j]
        fam = env.families[e]
        if fam == "bernoulli":
            out.append(1.0 if rng.random() < mean else 0.0)
        elif fam == "poisson":
            out.append(_poisson_draw(rng, mean))
        else:
            out.append(rng.gauss(mean, 1.0))
    return out


def sample_rewards(env: Environment, arms: Sequence[int],
                   rng: Random) -> list[float]:
    """One independent reward draw per group, ascending group order."""
    validate_assignment(env.graph, arms)
    return sample_rewards_at(env, env.graph.flat_indices(arms), rng)


def regret_at(env: Environment, flat: Sequence[int]) -> float:
    total = 0.0
    for j in flat:
        total += env.means[j]
    return env.optimal_value - total


def pseudo_regret(env: Environment, arms: Sequence[int]) -> float:
    """Gap of means: optimal value minus the summed local means of the
    assignment. Zero exactly at the optimum, positive elsewhere."""
    validate_assignment(env.graph, arms)
    return regret_at(env, env.graph.flat_indices(arms))


# ---------------------------------------------------------------------
# table-driven environment file format
# ---------------------------------------------------------------------

def load_table_env(path: str) -> Environment:
    """Read an environment from a structured text file.

    Line-oriented format; blank lines and '#' comments are ignored:

        arms K0 K1 ... Km-1          one line, per-agent arm counts
        group i1 i2 ...              one line per group, member agents
        family NAME                  one line per group, in group order
        mean FLAT_INDEX VALUE        one line per flat local arm

    Every flat local-arm index must get exactly one mean. Families are
    bernoulli, poisson or gaussian.
    """
    arm_counts = None
    groups = []
    families = []
    mean_lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            tag, args = fields[0], fields[1:]
            if tag == "arms":
                if arm_counts is not None:
                    raise InvalidEnvironmentError(f"line {lineno}: duplicate arms line")
                try:
                    arm_counts = [int(x) for x in args]
                except ValueError:
                    raise InvalidEnvironmentError(
                        f"line {lineno}: arms expects integers") from None
            elif tag == "group":
                try:
                    groups.append([int(x) for x in args])
                except ValueError:
                    raise InvalidEnvironmentError(
                        f"line {lineno}: group expects agent indices") from None
            elif tag == "family":
                if len(args) != 1:
                    raise InvalidEnvironmentError(f"line {lineno}: family expects one name")
                families.append(args[0])
            elif tag == "mean":
                if len(args) != 2:
                    raise InvalidEnvironmentError(
                        f"line {lineno}: mean expects an index and a value")
                try:
                    mean_lines.append((lineno, int(args[0]), float(args[1])))
                except ValueError:
                    raise InvalidEnvironmentError(
                        f"line {lineno}: mean expects an integer index and a float") from None
            else:
                raise InvalidEnvironmentError(f"line {lineno}: unknown directive {tag!r}")
    if arm_counts is None:
        raise InvalidEnvironmentError("missing arms line")
    if not groups:
        raise InvalidEnvironmentError("missing group lines")
    graph = Hypergraph(len(arm_counts), arm_counts, groups)
    if len(families) != graph.num_groups:
        raise InvalidEnvironmentError(
            f"{len(families)} family lines for {graph.num_groups} groups")
    means = [None] * graph.num_local_arms
    for lineno, idx, value in mean_lines:
        if not 0 <= idx < graph.num_local_arms:
            raise InvalidEnvironmentError(
                f"line {lineno}: mean index {idx} outside [0, {graph.num_local_arms})")
        if means[idx] is not None:
            raise InvalidEnvironmentError(f"line {lineno}: duplicate mean for index {idx}")
        means[idx] = value
    missing = [i for i, v in enumerate(means) if v is None]
    if missing:
        raise InvalidEnvironmentError(f"missing means for local arms {missing[:8]}")
    return make_environment(graph, means, families, name="table_env")
