"""Exact argmax of a sum of local scores over the joint arm space.

`ve_argmax` runs variable elimination: agents are eliminated one at a
time in a fixed order (highest agent index first). Eliminating agent i
merges every not-yet-consumed factor whose scope contains i into one
table over the union of their scopes, records the maximizing arm of i
for each context over the remaining agents, and replaces the merged
factors with the maximized table. After the last agent, backtracking
through the stored maximizers reconstructs the arg-maximizing joint
assignment.

`brute_argmax` is the independent oracle: full enumeration of the joint
space. Both share the same tie-break, smallest mixed-radix joint index,
so results are comparable assignment-for-assignment.

Operation counting: `op_count` is the number of factor-table cells read
while merging (each consumed factor contributes its size exactly once).
On pairwise chain graphs with the descending elimination order this
totals 1.5x the local-arm count, independent of the number of agents.
For hypergraphs whose merged scopes outgrow the original groups the
count can exceed the local-arm count. The count depends only on the
structure, not on the scores. For the brute oracle it is (joint arms) x
(groups), one cell per group per enumerated assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph, JointAssignment, _mixed_radix_weights

DEFAULT_BRUTE_CAP = 1 << 20


@dataclass(frozen=True)
class EliminationResult:
    argmax: JointAssignment
    value: float
    op_count: int


# ---------------------------------------------------------------------
# schedule construction (structure only, cached per hypergraph)
# ---------------------------------------------------------------------

class _Step:
    __slots__ = ("agent", "k", "inputs", "merged_size", "out_size",
                 "out_id", "rest_scope", "rest_weights")

    def __init__(self, agent, k, inputs, merged_size, out_size, out_id,
                 rest_scope, rest_weights):
        self.agent = agent
        self.k = k
        self.inputs = inputs          # list of (factor_id, cell_map or None)
        self.merged_size = merged_size
        self.out_size = out_size
        self.out_id = out_id
        self.rest_scope = rest_scope
        self.rest_weights = rest_weights


class _Schedule:
    __slots__ = ("leaves", "steps", "num_factors", "scalar_ids", "op_count")

    def __init__(self, leaves, steps, num_factors, scalar_ids, op_count):
        self.leaves = leaves          # list of (offset, size, perm or None)
        self.steps = steps
        self.num_factors = num_factors
        self.scalar_ids = scalar_ids
        self.op_count = op_count


def _cell_map(union_scope, union_counts, sub_scope, sub_weights):
    """For each cell of the union-scope table (C order), the index of the
    corresponding cell in the sub-scope table. None when the scopes are
    identical, in which case the layouts coincide."""
    if tuple(sub_scope) == tuple(union_scope):
        return None
    pos = {agent: j for j, agent in enumerate(union_scope)}
    union_weights = _mixed_radix_weights(union_counts)
    size = 1
    for k in union_counts:
        size *= k
    out = [0] * size
    for cell in range(size):
        idx = 0
        for agent, w in zip(sub_scope, sub_weights):
            j = pos[agent]
            coord = (cell // union_weights[j]) % union_counts[j]
            idx += coord * w
        out[cell] = idx
    return out


def _build_schedule(h: Hypergraph) -> _Schedule:
    scopes: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    leaves = []
    for e, members in enumerate(h.groups):
        scope = tuple(sorted(members))
        counts = [h.arm_counts[i] for i in scope]
        # leaf tables live in sorted-scope C order; the stored permutation
        # maps each sorted-layout cell to its group-order flat offset
        perm = _cell_map(scope, counts, members, h.group_weights[e])
        leaves.append((h.local_offsets[e], h.group_sizes[e], perm))
        scopes[e] = scope
        sizes[e] = h.group_sizes[e]

    alive = set(range(h.num_groups))
    next_id = h.num_groups
    steps = []
    op_count = 0
    for agent in range(h.num_agents - 1, -1, -1):
        input_ids = [f for f in sorted(alive) if agent in scopes[f]]
        if not input_ids:
            # cannot happen: every agent is in a group, and factors touching
            # agent i survive until agent i's turn under descending order
            raise AssertionError(f"no factor contains agent {agent}")
        union = sorted(set().union(*(scopes[f] for f in input_ids)))
        # all later agents are already eliminated, so agent is the maximum
        # of the union and occupies the last (stride-1) axis
        assert union[-1] == agent
        union_counts = [h.arm_counts[i] for i in union]
        merged_size = 1
        for k in union_counts:
            merged_size *= k
        inputs = []
        for f in input_ids:
            sub_scope = scopes[f]
            sub_counts = [h.arm_counts[i] for i in sub_scope]
            sub_weights = _mixed_radix_weights(sub_counts)
            inputs.append((f, _cell_map(union, union_counts, sub_scope, sub_weights)))
            op_count += sizes[f]
        k = h.arm_counts[agent]
        rest_scope = tuple(union[:-1])
        rest_counts = [h.arm_counts[i] for i in rest_scope]
        rest_weights = _mixed_radix_weights(rest_counts)
        out_size = merged_size // k
        steps.append(_Step(agent, k, inputs, merged_size, out_size, next_id,
                           rest_scope, rest_weights))
        alive.difference_update(input_ids)
        alive.add(next_id)
        scopes[next_id] = rest_scope
        sizes[next_id] = out_size
        next_id += 1

    scalar_ids = sorted(alive)
    assert all(scopes[f] == () for f in scalar_ids)
    return _Schedule(leaves, steps, next_id, scalar_ids, op_count)


def _schedule_for(h: Hypergraph) -> _Schedule:
    sched = h._ve_schedule
    if sched is None:
        sched = _build_schedule(h)
        h._ve_schedule = sched
    return sched


# ---------------------------------------------------------------------
# argmax routines
# ---------------------------------------------------------------------

def ve_argmax(h: Hypergraph, scores: Sequence[float]) -> EliminationResult:
    """Arg-maximize sum_e scores[a^e] over joint assignments by variable
    elimination. Exact; ties resolve to the smallest mixed-radix joint
    index. Scores must be finite."""
    if len(scores) != h.num_local_arms:
        raise ValueError(
            f"score vector has length {len(scores)}, expected {h.num_local_arms}")
    if type(scores) is not list:
        scores = [float(x) for x in scores]
    sched = _schedule_for(h)

    tables: list = [None] * sched.num_factors
    for fid, (offset, size, perm) in enumerate(sched.leaves):
        if perm is None:
            tables[fid] = scores[offset:offset + size]
        else:
            tables[fid] = [scores[offset + p] for p in perm]

    choices = []
    for step in sched.steps:
        fid0, map0 = step.inputs[0]
        t0 = tables[fid0]
        if map0 is None:
            merged = list(t0)
        else:
            merged = [t0[c] for c in map0]
        for fid, cmap in step.inputs[1:]:
            tf = tables[fid]
            if cmap is None:
                for c in range(step.merged_size):
                    merged[c] += tf[c]
            else:
                for c in range(step.merged_size):
                    merged[c] += tf[cmap[c]]
        k = step.k
        out = [0.0] * step.out_size
        arg = [0] * step.out_size
        pos = 0
        for r in range(step.out_size):
            best = merged[pos]
            best_a = 0
            for a in range(1, k):
                v = merged[pos + a]
                if v > best:
                    best = v
                    best_a = a
            out[r] = best
            arg[r] = best_a
            pos += k
        tables[step.out_id] = out
        choices.append(arg)

    value = 0.0
    for fid in sched.scalar_ids:
        value += tables[fid][0]

    arms = [0] * h.num_agents
    for step, arg in zip(reversed(sched.steps), reversed(choices)):
        ctx = 0
        for agent, w in zip(step.rest_scope, step.rest_weights):
            ctx += arms[agent] * w
        arms[step.agent] = arg[ctx]

    return EliminationResult(tuple(arms), value, sched.op_count)


def joint_totals(h: Hypergraph, scores: Sequence[float],
                 cap: int = DEFAULT_BRUTE_CAP) -> np.ndarray:
    """sum_e scores[a^e] for every joint assignment, indexed by the
    mixed-radix joint index. Materializes the full joint space."""
    if len(scores) != h.num_local_arms:
        raise ValueError(
            f"score vector has length {len(scores)}, expected {h.num_local_arms}")
    a_total = h.num_joint_arms
    if a_total > cap:
        raise ValueError(
            f"joint arm space has {a_total} assignments, exceeding the oracle "
            f"cap {cap}")
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("score vector contains non-finite entries")
    idx = np.arange(a_total, dtype=np.int64)
    total = np.zeros(a_total, dtype=np.float64)
    for e, members in enumerate(h.groups):
        loc = np.full(a_total, h.local_offsets[e], dtype=np.int64)
        for i, w in zip(members, h.group_weights[e]):
            loc += ((idx // h.joint_strides[i]) % h.arm_counts[i]) * w
        total += s[loc]
    return total


def brute_argmax(h: Hypergraph, scores: Sequence[float],
                 cap: int = DEFAULT_BRUTE_CAP) -> EliminationResult:
    """Exhaustive-enumeration oracle for ve_argmax. Independent of the
    elimination code path: evaluates sum_e scores[a^e] for every joint
    assignment and keeps the first maximum (= smallest joint index)."""
    total = joint_totals(h, scores, cap)
    best = int(np.argmax(total))
    return EliminationResult(h.decode_joint(best), float(total[best]),
                             h.num_joint_arms * h.num_groups)


def assignment_value(h: Hypergraph, scores: Sequence[float],
                     arms: Sequence[int]) -> float:
    """Recompute sum_e scores[a^e] for one assignment, accumulating in
    ascending group order (the same order the brute oracle uses)."""
    value = 0.0
    for j in h.flat_indices(arms):
        value += scores[j]
    return value
