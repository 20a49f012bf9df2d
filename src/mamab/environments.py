"""Reward-generating worlds.

Every environment is an immutable bundle of a coordination hypergraph,
one true mean per flat local arm, a reward family per group, and the
cached optimum of the summed means. Reward sampling takes the caller's
``TrialDraws``, so concurrent trials each pass their own. Each round
takes one slice of reward uniforms, one per group in ascending group
order, when some group is Bernoulli or Poisson, and one slice of reward
normals alike when some group is gaussian; group e's reward is drawn
from entry e of its family's slice.

Families: ``bernoulli`` (mean in [0, 1]; reward 1 when u < mean),
``poisson`` (mean in [0, POISSON_MAX_MEAN], by inversion of u, starting
from the mass exp(-mean) at 0 that the environment computes once per
local arm when it is built, ``Environment.zero_mass``; note Poisson
tails are heavier than Gaussian; it is included for benchmark
fidelity), ``gaussian`` (unit variance; mean + z).

Range errors from the builders name the parameter by its config key.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

import numpy as np

from .draws import TrialDraws
from .elimination import (DEFAULT_BRUTE_CAP, EliminationResult, _checked_scores,
                          assignment_value, brute_argmax, ve_argmax)
from .hypergraph import (Hypergraph, JointAssignment, _mixed_radix_decode,
                         validate_assignment)

FAMILIES = ("bernoulli", "poisson", "gaussian")

# Local mean tables for the chain benchmarks, indexed by the group's arm
# tuple (its agents in ascending order). Group e of a chain with groups of
# d agents looks the tuple up after a left cyclic rotation by e mod d
# positions. For pairs that rotation is the transpose on odd groups, which
# makes the alternating assignment starting with arm 0 the unique optimum;
# for triples the all-ones tuple maps to the maximum under every rotation,
# so the all-ones assignment stays optimal. The rotation convention is
# this implementation's choice.
BERNOULLI_PAIR_TABLE = {(0, 0): 0.75, (0, 1): 1.0, (1, 0): 0.25, (1, 1): 0.9}
POISSON_PAIR_TABLE = {(0, 0): 0.1, (0, 1): 0.3, (1, 0): 0.2, (1, 1): 0.1}
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

# Poisson inversion starts from the mass exp(-mean) at 0 and is exact
# only while that is a normal double (mean < 708); larger means would
# draw from a silently truncated distribution, so they are rejected.
POISSON_MAX_MEAN = 700.0


class InvalidEnvironmentError(ValueError):
    """Invalid environment construction input."""


@dataclass(frozen=True)
class RestrictedCandidates:
    """Explicit joint-arm set for environments whose playable assignments
    are not a full product space.

    The set is the all-zero assignment `optimal` plus every combination
    of per-agent decoy arms 1..num_decoys. `make_environment` requires
    its layout, singleton groups [0], [1], ... of agents with
    num_decoys + 1 arms each (group e's arms start at slot
    e (num_decoys + 1)), and means whose product-space optimum is a
    candidate.
    argmax over the set factors through per-group maxima, which returns
    exactly what a literal scan of the enumerated candidate list returns,
    including the tie-break toward the earliest candidate. It checks its
    scores as `ve_argmax` does.
    """

    num_groups: int
    num_decoys: int

    @functools.cached_property
    def optimal(self) -> JointAssignment:
        return (0,) * self.num_groups

    @property
    def size(self) -> int:
        return self.num_decoys ** self.num_groups + 1

    def __iter__(self):
        yield self.optimal
        yield from itertools.product(range(1, self.num_decoys + 1), repeat=self.num_groups)

    def argmax(self, scores: Sequence[float] | np.ndarray) -> EliminationResult:
        """The best candidate, its value and the score cells read. An array
        of scores whose largest magnitude times their count is finite
        bounds every total, so it is taken as it is (see `_array_argmax`);
        any other input is checked by `_checked_scores`."""
        num_decoys = self.num_decoys
        size = self.num_groups * (num_decoys + 1)
        if (type(scores) is np.ndarray and len(scores) == size
                and math.isfinite(float(np.abs(scores).max()) * size)):
            return self._array_argmax(scores)
        scores = _checked_scores(scores, size)
        opt_total = 0.0
        sub_total = 0.0
        sub_arms = []
        for off in range(0, size, num_decoys + 1):
            opt_total += scores[off]
            if num_decoys:
                # max and index both take the first maximum: smallest decoy
                decoys = scores[off + 1:off + 1 + num_decoys]
                best = max(decoys)
                sub_total += best
                sub_arms.append(decoys.index(best) + 1)
        if not num_decoys or sub_total <= opt_total:
            return EliminationResult(self.optimal, opt_total, size)
        return EliminationResult(tuple(sub_arms), sub_total, size)

    def _array_argmax(self, scores: np.ndarray) -> EliminationResult:
        """`argmax` on an array: group e's arms are row e of a
        (groups, num_decoys + 1) view, whose first maxima (argmax's, the
        smallest decoy) and totals, summed in group order as Python
        floats, are the list scan's."""
        num_decoys = self.num_decoys
        rows = scores.reshape(self.num_groups, num_decoys + 1)
        opt_total = 0.0
        for x in rows[:, 0].tolist():
            opt_total += x
        if not num_decoys:
            return EliminationResult(self.optimal, opt_total, scores.size)
        arms = rows[:, 1:].argmax(axis=1) + 1
        sub_total = 0.0
        for x in scores[arms + self._offset_array].tolist():
            sub_total += x
        if sub_total <= opt_total:
            return EliminationResult(self.optimal, opt_total, scores.size)
        return EliminationResult(tuple(arms.tolist()), sub_total, scores.size)

    @functools.cached_property
    def _offset_array(self) -> np.ndarray:
        return np.arange(self.num_groups) * (self.num_decoys + 1)

    def sample(self, rng: TrialDraws) -> JointAssignment:
        """Uniform draw over the candidate list, of any size. With B = 53k
        for the fewest k choice uniforms whose 53 bits each cover size,
        and x the B-bit integer they make, the index is x * size >> B,
        redrawn while x * size mod 2**B falls below 2**B mod size
        (Lemire's rejection), so every index has the same chance."""
        size = self.size
        k = -(-size.bit_length() // 53)
        bits = 53 * k
        reject = (1 << bits) % size
        while True:
            x = 0
            for u in rng.choices.take(k):
                x = x << 53 | int(u * 2.0 ** 53)
            m = x * size
            if m & ((1 << bits) - 1) >= reject:
                break
        idx = m >> bits
        if idx == 0:
            return self.optimal
        combo = _mixed_radix_decode(idx - 1, [self.num_decoys] * self.num_groups)
        return tuple(a + 1 for a in combo)


@dataclass(frozen=True)
class Environment:
    graph: Hypergraph
    means: tuple[float, ...]
    families: tuple[str, ...]
    optimal_assignment: JointAssignment
    optimal_value: float
    name: str
    # exp(-mean) of each local arm of a Poisson group, the mass at 0 its
    # inversion starts from; 0.0 for the other arms
    zero_mass: tuple[float, ...] = field(repr=False, compare=False)
    candidates: Optional[RestrictedCandidates] = None


def make_environment(graph: Hypergraph, means: Sequence[float],
                     families: Sequence[str], name: str,
                     candidates: Optional[RestrictedCandidates] = None,
                     ) -> Environment:
    """Validate means/families (and a candidate set) against the graph,
    locate the optimum, and freeze the environment."""
    if candidates is not None:
        k = candidates.num_groups
        if (graph.groups != tuple((e,) for e in range(k))
                or graph.arm_counts != (candidates.num_decoys + 1,) * k):
            raise InvalidEnvironmentError(
                f"{candidates} does not fit {graph}: it needs groups [0], [1], .. [{k - 1}] "
                f"of one agent each, with {candidates.num_decoys + 1} arms")
    if len(means) != graph.num_local_arms:
        raise InvalidEnvironmentError(
            f"means has length {len(means)}, expected {graph.num_local_arms}")
    if len(families) != graph.num_groups:
        raise InvalidEnvironmentError(
            f"families has length {len(families)}, expected {graph.num_groups}")
    for fam in families:
        if fam not in FAMILIES:
            raise InvalidEnvironmentError(f"unknown reward family {fam!r}")
    zero_mass = [0.0] * graph.num_local_arms
    for e in range(graph.num_groups):
        lo = graph.local_offsets[e]
        for j in range(lo, lo + graph.group_sizes[e]):
            mean = means[j]
            if not math.isfinite(mean):
                raise InvalidEnvironmentError(f"local arm {j} has non-finite mean")
            if families[e] == "bernoulli" and not 0.0 <= mean <= 1.0:
                raise InvalidEnvironmentError(
                    f"bernoulli mean {mean} at local arm {j} outside [0, 1]")
            if families[e] == "poisson":
                if not 0.0 <= mean <= POISSON_MAX_MEAN:
                    raise InvalidEnvironmentError(
                        f"poisson mean {mean} at local arm {j} outside "
                        f"[0, {POISSON_MAX_MEAN:g}]")
                zero_mass[j] = math.exp(-mean)

    means = tuple(float(x) for x in means)
    if graph.num_joint_arms <= DEFAULT_BRUTE_CAP:
        res = brute_argmax(graph, list(means))
        opt_arms = res.argmax
    else:
        opt_arms = ve_argmax(graph, list(means)).argmax
    if candidates is not None and 0 in opt_arms and any(opt_arms):
        raise InvalidEnvironmentError(f"the optimum {opt_arms} of the means mixes arm 0 "
                                      f"with decoys, so it is not in {candidates}")
    # recompute in ascending group order so the cached value is bitwise
    # the value pseudo_regret reconstructs for this assignment
    opt_value = assignment_value(graph, means, opt_arms)
    return Environment(graph=graph, means=means, families=tuple(families),
                       optimal_assignment=opt_arms, optimal_value=opt_value,
                       name=name, zero_mass=tuple(zero_mass), candidates=candidates)


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

    table = TRIPLE_TABLE if d == 3 else (
        BERNOULLI_PAIR_TABLE if family == "bernoulli" else POISSON_PAIR_TABLE)
    # a group's means under each rotation r, its local arms in mixed-radix order
    local_arms = list(itertools.product((0, 1), repeat=d))
    rotated = [[table[arms[r:] + arms[:r]] for arms in local_arms] for r in range(d)]
    means = []
    for e in range(graph.num_groups):
        means += rotated[e % d]
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

    # village min(e, n - 1) reaches mine e, so no mine is empty and mine e
    # is group e
    mine_members = [[i for i in range(n) if i <= e < i + reach[i]]
                    for e in range(num_mines)]
    graph = Hypergraph(n, reach, mine_members)

    means = []
    for mine, members in enumerate(mine_members):
        # the group's local arms in mixed-radix order
        for combo in itertools.product(*(range(reach[i]) for i in members)):
            w = sum(workers[i] for i, a in zip(members, combo) if i + a == mine)
            if w == 0:
                means.append(0.0)
            else:
                means.append(min(1.0, GEM_WORKER_GROWTH ** (w - 1) * base_p[mine]))
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
    means = ([X + delta] + [X] * L) * rho
    if not math.isfinite(sum(means)):
        # the sum bounds every total a maximizer forms; name its larger part
        raise InvalidEnvironmentError(
            f"{'delta' if delta > (L + 1) * X else 'X'} is too large: the {len(means)} "
            f"means (X = {X}, delta = {delta}) sum beyond the float range")
    graph = Hypergraph(rho, [L + 1] * rho, [[e] for e in range(rho)])
    return make_environment(graph, means, ["gaussian"] * rho,
                            name=f"lower_bound_rho{rho}_L{L}",
                            candidates=RestrictedCandidates(rho, L))


# ---------------------------------------------------------------------
# reward sampling and regret
# ---------------------------------------------------------------------

def sample_rewards_at(env: Environment, flat: Sequence[int],
                      rng: TrialDraws) -> list[float]:
    means = env.means
    zero_mass = env.zero_mass
    families = env.families
    u = z = None
    out = []
    for e, j in enumerate(flat):
        fam = families[e]
        if fam == "gaussian":
            if z is None:
                z = rng.reward_normals.take(len(flat))
            out.append(means[j] + z[e])
            continue
        if u is None:
            u = rng.rewards.take(len(flat))
        if fam == "bernoulli":
            out.append(1.0 if u[e] < means[j] else 0.0)
        else:
            # poisson by inversion: the smallest k whose cdf reaches u;
            # should rounding leave the cdf below u, p underflows to 0
            # far past the mean and ends the loop
            lam = means[j]
            p = cdf = zero_mass[j]
            k = 0
            while u[e] > cdf and p:
                k += 1
                p *= lam / k
                cdf += p
            out.append(float(k))
    return out


def sample_rewards(env: Environment, arms: Sequence[int],
                   rng: TrialDraws) -> list[float]:
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
