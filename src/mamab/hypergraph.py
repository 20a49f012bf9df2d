"""Coordination hypergraphs for multi-agent bandits.

Agents are vertices. Each group of agents that shares a local reward
function is a hyperedge. This module owns the bidirectional indexing
between joint assignments (one individual arm per agent) and the flat
local-arm index space that stacks all groups back to back.

Indexing conventions, fixed and 0-based everywhere:

* joint assignments enumerate in mixed-radix order with agent 0 as the
  most significant digit, so for two binary agents the order is
  (0,0), (0,1), (1,0), (1,1);
* within a group, local arms encode mixed-radix with the group's first
  listed agent most significant;
* flat local-arm index = group offset + within-group index, where group
  offsets accumulate group table sizes in group order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

JointAssignment = tuple[int, ...]


class HypergraphError(ValueError):
    """Base class for invalid hypergraph construction input."""


class EmptyGroupError(HypergraphError):
    pass


class DuplicateAgentError(HypergraphError):
    pass


class AgentOutOfRangeError(HypergraphError):
    pass


class UncoveredAgentError(HypergraphError):
    pass


class ZeroArmCountError(HypergraphError):
    pass


def _mixed_radix_weights(counts: Sequence[int]) -> tuple[int, ...]:
    # most significant digit first: weight[j] = product of counts[j+1:]
    weights = [1] * len(counts)
    for j in range(len(counts) - 2, -1, -1):
        weights[j] = weights[j + 1] * counts[j + 1]
    return tuple(weights)


class Hypergraph:
    """Immutable agent/group structure with precomputed index maps.

    Instances are safe to share across concurrent trial runners; nothing
    is mutated after construction.
    """

    def __init__(self, num_agents: int, arm_counts: Sequence[int],
                 groups: Sequence[Sequence[int]]):
        if num_agents < 1:
            raise HypergraphError(f"num_agents must be >= 1, got {num_agents}")
        if len(arm_counts) != num_agents:
            raise HypergraphError(
                f"arm_counts has length {len(arm_counts)}, expected {num_agents}")
        for i, k in enumerate(arm_counts):
            if k < 1:
                raise ZeroArmCountError(f"agent {i} has arm count {k}")

        covered = [False] * num_agents
        norm_groups = []
        for e, group in enumerate(groups):
            members = tuple(group)
            if not members:
                raise EmptyGroupError(f"group {e} is empty")
            seen = set()
            for i in members:
                if not 0 <= i < num_agents:
                    raise AgentOutOfRangeError(
                        f"group {e} contains agent {i}, valid range is [0, {num_agents})")
                if i in seen:
                    raise DuplicateAgentError(f"group {e} lists agent {i} twice")
                seen.add(i)
                covered[i] = True
            norm_groups.append(members)
        missing = [i for i, c in enumerate(covered) if not c]
        if missing:
            raise UncoveredAgentError(
                f"agents {missing} belong to no group; their arms could never "
                f"affect the reward")

        self.num_agents = num_agents
        self.arm_counts = tuple(arm_counts)
        self.groups = tuple(norm_groups)
        self.num_groups = len(norm_groups)

        sizes = []
        weights = []
        offsets = []
        total = 0
        for members in self.groups:
            counts = [self.arm_counts[i] for i in members]
            size = 1
            for k in counts:
                size *= k
            sizes.append(size)
            weights.append(_mixed_radix_weights(counts))
            offsets.append(total)
            total += size
        self.group_sizes = tuple(sizes)
        self.group_weights = tuple(weights)
        self.local_offsets = tuple(offsets)
        self.num_local_arms = total

        self.joint_strides = _mixed_radix_weights(self.arm_counts)
        a = 1
        for k in self.arm_counts:
            a *= k
        self.num_joint_arms = a

        # elimination schedule, built lazily on first ve_argmax call
        self._ve_schedule = None

    def __repr__(self) -> str:
        return (f"Hypergraph(num_agents={self.num_agents}, "
                f"arm_counts={list(self.arm_counts)}, "
                f"groups={[list(g) for g in self.groups]})")

    # -- joint <-> integer helpers ------------------------------------

    def encode_joint(self, arms: Sequence[int]) -> int:
        return sum(a * w for a, w in zip(arms, self.joint_strides))

    def decode_joint(self, index: int) -> JointAssignment:
        out = []
        for w, k in zip(self.joint_strides, self.arm_counts):
            out.append((index // w) % k)
        return tuple(out)

    # -- local-arm indexing --------------------------------------------

    def flat_indices(self, arms: Sequence[int]) -> list[int]:
        """Flat local-arm index touched by `arms` in each group, in group
        order. No validation; this is the hot path."""
        out = []
        for members, weights, offset in zip(self.groups, self.group_weights,
                                            self.local_offsets):
            w = offset
            for i, mw in zip(members, weights):
                w += arms[i] * mw
            out.append(w)
        return out


def enumerate_joint(h: Hypergraph) -> Iterator[JointAssignment]:
    """Yield every joint assignment exactly once, in mixed-radix order
    (agent 0 most significant). Cost is the full joint-space size."""
    return itertools.product(*(range(k) for k in h.arm_counts))


def validate_assignment(h: Hypergraph, arms: Sequence[int]) -> None:
    if len(arms) != h.num_agents:
        raise ValueError(
            f"assignment has length {len(arms)}, expected {h.num_agents}")
    for i, (a, k) in enumerate(zip(arms, h.arm_counts)):
        if not 0 <= a < k:
            raise ValueError(f"agent {i}: arm {a} out of range [0, {k})")
