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
import math
from typing import Callable, Iterator, Sequence

JointAssignment = tuple[int, ...]

# COMPILE_AFTER, CHUNK_LINES and `_load` are what the flat kernel here and
# the VE kernel in `elimination` share. A graph used more than COMPILE_AFTER
# times on one path compiles that path's kernel, which costs as much as
# 45-77 VE interpreter or 19-31 flat loop calls on the benchmark graphs
# (break-even calls, BENCH_lookup_tables.json); set-up uses a graph once or twice
COMPILE_AFTER = 32
# lines (flat kernel: groups) per compiled chunk function, which bounds the
# compiler's memory
CHUNK_LINES = 120


class HypergraphError(ValueError):
    """Invalid hypergraph construction input."""


def _mixed_radix_weights(counts: Sequence[int]) -> tuple[int, ...]:
    # most significant digit first: weight[j] = product of counts[j+1:]
    weights = [1] * len(counts)
    for j in range(len(counts) - 2, -1, -1):
        weights[j] = weights[j + 1] * counts[j + 1]
    return tuple(weights)


def _mixed_radix_decode(index: int, counts: Sequence[int]) -> tuple[int, ...]:
    """The digits of `index` in the mixed radix `counts`, most
    significant first."""
    return tuple(index // w % k for w, k in zip(_mixed_radix_weights(counts), counts))


def _load(chunks: list[str], filename: str) -> list[Callable]:
    """The function each chunk of emitted source defines, compiled with
    empty builtins, so the source reaches nothing but its arguments."""
    out = []
    for text in chunks:
        names = {}
        exec(compile(text, filename, "exec"), {"__builtins__": {}}, names)
        out.append(names.popitem()[1])
    return out


class Hypergraph:
    """Agent/group structure with precomputed index maps.

    The structure never changes after construction. Two caches are kept
    on it lazily: the VE schedule (`_ve_schedule`), from the first
    `ve_argmax` call on, which counts that path's calls and holds its
    compiled kernel; and the flat-index kernel (`_flat_kernel`), compiled
    once `flat_indices` has been called more than COMPILE_AFTER times
    (counted in `_flat_calls`). Each path counts on its own, so a graph
    that is only ever indexed (under the `random` policy) still compiles
    its flat kernel. Both depend on the structure alone, so concurrent
    first use is benign: at worst one is built twice, with the same result
    (a lost update of a call count only delays the compile), and instances
    are safe to share across trial runners.
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
                raise HypergraphError(f"agent {i} has arm count {k}")

        covered = [False] * num_agents
        norm_groups = []
        for e, group in enumerate(groups):
            members = tuple(group)
            if not members:
                raise HypergraphError(f"group {e} is empty")
            seen = set()
            for i in members:
                if not 0 <= i < num_agents:
                    raise HypergraphError(
                        f"group {e} contains agent {i}, valid range is [0, {num_agents})")
                if i in seen:
                    raise HypergraphError(f"group {e} lists agent {i} twice")
                seen.add(i)
                covered[i] = True
            norm_groups.append(members)
        missing = [i for i, c in enumerate(covered) if not c]
        if missing:
            raise HypergraphError(
                f"agents {missing} belong to no group; their arms could never "
                f"affect the reward")

        self.num_agents = num_agents
        self.arm_counts = tuple(arm_counts)
        self.groups = tuple(norm_groups)
        self.num_groups = len(norm_groups)

        counts = [[self.arm_counts[i] for i in members] for members in self.groups]
        self.group_sizes = tuple(map(math.prod, counts))
        self.group_weights = tuple(map(_mixed_radix_weights, counts))
        self.local_offsets = tuple(itertools.accumulate(self.group_sizes[:-1], initial=0))
        self.num_local_arms = sum(self.group_sizes)
        self.num_joint_arms = math.prod(self.arm_counts)

        # the two lazy caches the class docstring describes
        self._ve_schedule = None
        self._flat_calls = 0
        self._flat_kernel = None

    def __repr__(self) -> str:
        return (f"Hypergraph(num_agents={self.num_agents}, "
                f"arm_counts={list(self.arm_counts)}, "
                f"groups={[list(g) for g in self.groups]})")

    # -- joint <-> integer helpers ------------------------------------

    def decode_joint(self, index: int) -> JointAssignment:
        return _mixed_radix_decode(index, self.arm_counts)

    # -- local-arm indexing --------------------------------------------

    def flat_indices(self, arms: Sequence[int]) -> list[int]:
        """Flat local-arm index touched by `arms` in each group, in group
        order. No validation; this is the hot path. The first
        COMPILE_AFTER calls on a graph loop over its groups; the next
        compiles the graph's flat kernel, which every later call runs."""
        kernel = self._flat_kernel
        if kernel is None:
            self._flat_calls += 1
            if self._flat_calls <= COMPILE_AFTER:
                return self._flat_loop(arms)
            kernel = self._flat_kernel = self._compile_flat()
        return kernel(arms)

    def _flat_loop(self, arms: Sequence[int]) -> list[int]:
        """`flat_indices` by looping over the groups: the cold path and the
        reference the compiled kernel reproduces."""
        out = []
        for members, weights, offset in zip(self.groups, self.group_weights,
                                            self.local_offsets):
            w = offset
            for i, mw in zip(members, weights):
                w += arms[i] * mw
            out.append(w)
        return out

    def _compile_flat(self) -> Callable[[Sequence[int]], list[int]]:
        """`flat_indices` as loop-free functions `f(A)` returning
        `[o_e + A[i] * w + A[j], ...]`, one term per group and CHUNK_LINES
        groups per function. Every literal is an integer of the graph's
        layout; chunks are concatenated in group order."""
        terms = []
        for members, weights, offset in zip(self.groups, self.group_weights,
                                            self.local_offsets):
            term = [str(offset)] if offset else []
            term += [f"A[{i}]" if w == 1 else f"A[{i}] * {w}"
                     for i, w in zip(members, weights)]
            terms.append(" + ".join(term))
        parts = [terms[c:c + CHUNK_LINES] for c in range(0, len(terms), CHUNK_LINES)]
        chunks = _load(["def f(A): return [" + ",".join(f"\n    {t}" for t in part) + "]\n"
                        for part in parts], "<flat kernel>")
        if len(chunks) == 1:
            return chunks[0]

        def kernel(arms):
            out = []
            for f in chunks:
                out += f(arms)
            return out
        return kernel


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
