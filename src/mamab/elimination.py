"""Exact argmax of a sum of local scores over the joint arm space.

`ve_argmax` runs variable elimination: agents are eliminated one at a
time in a fixed order (highest agent index first). Eliminating agent i
merges every not-yet-consumed factor whose scope contains i into one
table over the union of their scopes, records the maximizing arm of i
for each context over the remaining agents, and replaces the merged
factors with the maximized table. After the last agent, backtracking
through the stored maximizers reconstructs the arg-maximizing joint
assignment.

A schedule addresses one slot space. Slots 0 .. A_loc-1 are the score
vector as it arrives, in `Hypergraph.flat_indices`' group order, so no
leaf table is copied or permuted; each step's output table takes the
next free slots. A table's first slot is unique and rises in creation
order, so it is the table's name: a step input is a bare column with the
slot of every merged cell, built in C order over the union scope (a
range where layouts coincide), and its table is `col[0]`. Slots below
A_loc are leaves, the rest step outputs.

Two paths run a schedule. The interpreter loops over its steps and
cells. Once a graph has been argmaxed more than COMPILE_AFTER times, the
schedule is emitted as loop-free Python source (one local per merged
cell, one strict `>` per candidate arm, constant-index backtracking),
compiled in chunks of about CHUNK_LINES lines, cut between any two
output rows, and run instead, 4.5-10.1x faster on the benchmark graphs;
every schedule compiles. Chunks carry by append, read by a position
fixed at emit time: cells in `T`, maximizers in `G[j]`, arms in `A`. The
interpreter stays the cold path and the reference: both add the same
floats in the same order from 0.0, so results are bit-identical. The
graph caches the schedule (`_ve_schedule`), which counts the uncompiled
calls and holds the kernel. `_load`, COMPILE_AFTER (with what a compile
costs) and CHUNK_LINES are shared with the flat-index kernel and live in
`hypergraph`; this module re-exports the two constants.

`_build_schedule` keeps an index from each agent to the alive factors
that hold it, so on graphs of bounded scope its cost grows linearly with
the number of agents. It refuses a graph whose merged table would exceed
DEFAULT_BRUTE_CAP cells, or whose cell-map columns other than ranges
would together hold more than DEFAULT_BRUTE_CAP entries, before
allocating the column that crosses the cap, so a schedule's cell maps
take at most 8 MiB (8 bytes an entry).

`brute_argmax` is the independent oracle: full enumeration of the joint
space, each assignment's scores added in group order. Fixing leading
agents' arms cuts the joint index into blocks; an agent is fixed only
while the block it leaves holds at least BRUTE_BLOCK cells, so one agent
with many arms is never cut into tiny blocks. `_joint_blocks` adds the
groups in order into a partial table over the free agents seen so far,
one axis per agent with more than one arm, highest agent slowest,
starting from a zero cell; every score is read in place through a
strided view of the score vector. A group that holds a later agent grows
the table by numpy's leading-axis broadcast, which writes partial +
score to each arm of the new agents, so every group is one add, and its
inner loop runs over the long stride-0 run of the earlier agents. Each
cell still goes through exactly fl(...fl(fl(0.0 + s_0) + s_1)... +
s_{rho-1}), the bits `assignment_value` gives, but early groups are
added over small tables: a 2^20-arm chain costs about two tables' worth
of adds, not one pass over the joint table per group. Within a block,
memory order is the reverse of joint order, so `brute_argmax` converts
the memory positions of a block's maxima to joint indices and keeps the
smallest, and takes a later block's maximum only if strictly greater;
it holds about two blocks, never the joint table. `joint_totals` writes
each block, transposed, into one array of the joint space, for `mamab
oracle` and the tests.

VE and the brute oracle both break ties toward the smallest mixed-radix
joint index, and they agree assignment-for-assignment whenever the sums
are exact (small integers, say). VE adds the same scores in another
order, so under rounding two assignments that tie in one order can
differ by an ulp in the other: VE may then return a larger joint index,
or an assignment whose group-order sum lies an ulp below the brute
maximum. Both maximizers and the restricted candidate set check their
scores with `_checked_scores` and return an `EliminationResult`.

Operation counting: `op_count` is the number of factor-table cells read
while merging (each consumed factor contributes its size exactly once).
On pairwise chain graphs with the descending elimination order this
totals 1.5x the local-arm count, independent of the number of agents.
For hypergraphs whose merged scopes outgrow the original groups the
count can exceed the local-arm count. The count depends only on the
structure, not on the scores. For the brute oracle it is (joint arms) x
(groups), one cell per group per enumerated assignment: the logical count,
which the prefix sums do not change although they make fewer adds.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .hypergraph import (CHUNK_LINES, COMPILE_AFTER, Hypergraph, JointAssignment,
                         _load, _mixed_radix_weights)

DEFAULT_BRUTE_CAP = 1 << 20
# the fewest cells a block of the brute oracle's joint index keeps when
# it fixes an agent's arm
BRUTE_BLOCK = 1 << 17


class EliminationResult(NamedTuple):
    """What every joint-arm maximizer returns: `ve_argmax`, `brute_argmax`
    and the restricted candidate set's `argmax`."""

    argmax: JointAssignment
    value: float
    op_count: int


def _checked_scores(scores: Sequence[float], size: int) -> list:
    """`scores` as a list, checked for the maximizers: it must hold
    `size` entries, each finite, whose absolute values have a finite sum.
    Every total a maximizer forms, in any order, sums some of the entries,
    so it is at most that sum, which is at most sqrt(size) times their
    Euclidean norm: the cheap bound is tried first."""
    if len(scores) != size:
        raise ValueError(f"score vector has length {len(scores)}, expected {size}")
    if type(scores) is not list:
        scores = [float(x) for x in scores]
    if (not math.isfinite(math.hypot(*scores) * math.sqrt(size))
            and not math.isfinite(sum(map(abs, scores)))):
        if all(map(math.isfinite, scores)):
            raise ValueError("score vector entries are finite, but their sum overflows")
        raise ValueError("score vector contains non-finite entries")
    return scores


# ---------------------------------------------------------------------
# schedule construction (structure only, cached per hypergraph)
# ---------------------------------------------------------------------

@dataclass(slots=True)
class _Step:
    agent: int
    k: int
    # one column per input table: the slot of every merged cell, in the
    # union's C order (a range when the table's layout is the union's);
    # cell 0 is the table's first slot, col[0], which names the table
    inputs: list
    out_size: int
    out_slot: int                 # first of the output table's slots
    rest_scope: tuple
    rest_weights: tuple


@dataclass(slots=True)
class _Schedule:
    # slots 0 .. A_loc-1 hold the scores; step outputs follow in step order,
    # so a table's first slot is unique and rises in creation order
    steps: list
    scalars: list                 # slot of each scalar table, ascending
    op_count: int
    calls: int = 0                # uncompiled ve_argmax calls so far
    kernel: Callable | None = None    # compiled once calls pass COMPILE_AFTER


def _cell_map(union_scope, union_counts, sub_scope, sub_weights, base):
    """For each cell of the union-scope table (C order), the slot of the
    corresponding cell of the sub-scope table stored from slot `base`: a
    range when the two layouts coincide. Otherwise the column is a C-order
    outer product over the union, from [base], expanded once per agent by
    its arms times its sub-table weight (0 outside the sub-scope). An int64
    array holds it in 8 bytes a cell, where a list needs an int per slot > 256."""
    if tuple(sub_scope) == tuple(union_scope):
        return range(base, base + math.prod(union_counts))
    weight = dict(zip(sub_scope, sub_weights))
    column = array("q", [base])
    for agent, k in zip(union_scope, union_counts):
        w = weight.get(agent, 0)
        wider = array("q", [0]) * (len(column) * k)
        for a in range(k):
            wider[a::k] = array("q", [c + a * w for c in column]) if a * w else column
        column = wider
    return column


def _build_schedule(h: Hypergraph) -> _Schedule:
    # alive table's first slot -> (scope in axis order, axis weights, size);
    # the leaves are the groups' slices of the score vector, read in place
    alive = {h.local_offsets[e]: (members, h.group_weights[e], h.group_sizes[e])
             for e, members in enumerate(h.groups)}
    # agent -> first slots of the alive tables whose scope holds it
    holding = [set() for _ in range(h.num_agents)]
    for base, (members, _, _) in alive.items():
        for i in members:
            holding[i].add(base)
    next_slot = h.num_local_arms
    steps = []
    op_count = 0
    stored = 0             # entries of every cell-map column that is not a range
    for agent in range(h.num_agents - 1, -1, -1):
        # some table holds agent, as every agent is in a group; all later
        # agents are eliminated, so agent is the maximum of the union and
        # occupies its last (stride-1) axis
        bases = sorted(holding[agent])
        union = sorted(set().union(*(alive[b][0] for b in bases)))
        assert union[-1] == agent
        union_counts = [h.arm_counts[i] for i in union]
        merged_size = math.prod(union_counts)
        if merged_size > DEFAULT_BRUTE_CAP:
            raise ValueError(
                f"eliminating agent {agent} merges a table of {merged_size} cells "
                f"over agents {union}, exceeding the cap {DEFAULT_BRUTE_CAP}; "
                f"numbering hub agents first keeps the tables small")
        inputs = []
        for base in bases:
            scope, weights, size = alive.pop(base)
            for i in scope:
                holding[i].discard(base)
            if tuple(scope) != tuple(union):
                stored += merged_size
                if stored > DEFAULT_BRUTE_CAP:
                    raise ValueError(
                        f"the schedule's cell maps would hold {stored} entries by "
                        f"agent {agent}, exceeding the cap {DEFAULT_BRUTE_CAP}; "
                        f"numbering hub agents first keeps the tables small")
            inputs.append(_cell_map(union, union_counts, scope, weights, base))
            op_count += size
        k = h.arm_counts[agent]
        rest_scope = tuple(union[:-1])
        rest_weights = _mixed_radix_weights(union_counts[:-1])
        out_size = merged_size // k
        steps.append(_Step(agent, k, inputs, out_size, next_slot, rest_scope, rest_weights))
        alive[next_slot] = (rest_scope, rest_weights, out_size)
        for i in rest_scope:
            holding[i].add(next_slot)
        next_slot += out_size

    assert all(alive[b][0] == () for b in alive)
    return _Schedule(steps, sorted(alive), op_count)


# ---------------------------------------------------------------------
# compiled kernel (straight-line source emitted from a schedule)
# ---------------------------------------------------------------------

class _Emitter:
    """Loop-free kernel source, cut into functions of about CHUNK_LINES
    lines that each start with `header`, so that `_load` compiles one
    chunk at a time, which bounds the compiler's memory."""

    def __init__(self, header: str):
        self.header = header
        self.lines: list[str] = []
        self.chunks: list[str] = []

    def fits(self, n: int) -> bool:
        """Whether `n` more lines, a close's among them, fit; an empty chunk
        takes any. Each forward row asks for the same count, so a step
        that fits whole is never cut."""
        return not self.lines or len(self.lines) + n <= CHUNK_LINES

    def close(self, *tail: str) -> None:
        """End the open chunk with the lines `tail`. `lines` is emptied in
        place, so an emitter may hold on to it across chunks."""
        self.lines += tail
        self.chunks.append(self.header + "".join(f"\n    {line}" for line in self.lines) + "\n")
        self.lines.clear()


def _kernel_source(sched: _Schedule) -> tuple[list[str], list[str]]:
    """Loop-free source performing `sched`, as forward chunks
    `f(s, T, G)` (the last one returns the value) and backtrack chunks
    `b(G, A)` (each reads earlier chunks' arms as `A[i]` and returns A
    extended by its own, agent 0 first), each about CHUNK_LINES lines. A
    chunk ends between any two output rows; a row's k candidate lines
    stay together. Slots below A_loc are leaf cells, read from `s` in
    place; local `x<slot>` holds an output cell in the chunk that computed
    it. Every output table is read by one later step and each scalar by
    the return, so a forward chunk ends with one `T += (x<slot>, ...)` of
    its cells whose table the current step or a later one reads, and a
    later chunk reads such a cell as `T[i]`, its position fixed here; G[j]
    gets step j's maximizers one piece per chunk. Every literal is an
    integer from the schedule."""
    leaves = sched.steps[0].out_slot          # A_loc: the first output slot
    # table (first slot) -> the step that reads it; the return reads the scalars
    reader = dict.fromkeys(sched.scalars, len(sched.steps))
    reader.update((col[0], j) for j, step in enumerate(sched.steps) for col in step.inputs)
    at = {}                # slot -> position in T of a cell an earlier chunk appended
    made = []              # (slot, reading step) of each cell the open chunk computed

    def ref(slot):
        return f"s[{slot}]" if slot < leaves else f"T[{at[slot]}]" if slot in at else f"x{slot}"

    def append(j):
        # the open chunk's cells that step j or a later one reads
        kept = [x for x, by in made if by >= j]
        made.clear()
        for x in kept:
            at[x] = len(at)
        return f"T += ({''.join(f'x{x}, ' for x in kept)})"

    def maximizers(j, first, stop):
        # G[j]'s piece for rows first .. stop - 1, if the step has a choice
        if sched.steps[j].k == 1 or first == stop:
            return []
        return [f"G[{j}] {'+=' if first else '='} ({''.join(f'g{r}, ' for r in range(first, stop))})"]

    forward = _Emitter("def f(s, T, G):")
    lines = forward.lines
    for j, step in enumerate(sched.steps):
        k = step.k
        first = 0          # first row of step j in the open chunk
        for r in range(step.out_size):
            # the row, its piece of G[j] and the append
            if not forward.fits(k + (k > 1) + 1):
                forward.close(*maximizers(j, first, r), append(j))
                first = r
            terms = [" + ".join(ref(col[c]) for col in step.inputs) for c in range(r * k, r * k + k)]
            out = step.out_slot + r
            made.append((out, reader[step.out_slot]))
            # strict > keeps the smallest maximizing arm, as the interpreter does
            lines.append(f"x{out} = {terms[0]}" + (f"; g{r} = 0" if k > 1 else ""))
            lines += [f"if (v := {terms[a]}) > x{out}: x{out} = v; g{r} = {a}"
                      for a in range(1, k)]
        lines += maximizers(j, first, step.out_size)
    forward.close("return 0.0" + "".join(f" + {ref(slot)}" for slot in sched.scalars))

    backward = _Emitter("def b(G, A):")
    lines = backward.lines
    first = 0              # lowest agent of the open chunk; A holds the arms below it
    for j in range(len(sched.steps) - 1, -1, -1):
        step = sched.steps[j]
        agent = step.agent
        if not backward.fits(1):
            backward.close(f"return A + ({''.join(f'a{i}, ' for i in range(first, agent))})")
            first = agent
        if step.k == 1:
            lines.append(f"a{agent} = 0")
            continue
        ctx = " + ".join((f"a{i}" if i >= first else f"A[{i}]") + (f" * {w}" if w > 1 else "")
                         for i, w in zip(step.rest_scope, step.rest_weights))
        lines.append(f"a{agent} = G[{j}][{ctx or 0}]")
    backward.close(f"return A + ({''.join(f'a{i}, ' for i in range(first, len(sched.steps)))})")
    return forward.chunks, backward.chunks


def _compile_kernel(sched: _Schedule):
    """scores -> (arms, value), computed by the functions `_kernel_source` emits."""
    forward, backward = _kernel_source(sched)
    *head, last = _load(forward, "<ve kernel>")
    backward = _load(backward, "<ve kernel>")
    num_steps = len(sched.steps)

    def kernel(s):
        T = []
        G = [None] * num_steps
        for f in head:
            f(s, T, G)
        value = last(s, T, G)
        A = ()
        for b in backward:
            A = b(G, A)
        return A, value
    return kernel


# ---------------------------------------------------------------------
# argmax routines
# ---------------------------------------------------------------------

def _interpret(sched: _Schedule, scores: list) -> tuple[JointAssignment, float]:
    """Run the schedule's loops over `scores`: the reference the compiled
    kernel reproduces bit for bit."""
    slots = scores[:]         # output tables are appended; the caller's list stays
    choices = []
    for step in sched.steps:
        col = step.inputs[0]
        merged = slots[col.start:col.stop] if type(col) is range else [slots[c] for c in col]
        for col in step.inputs[1:]:
            if type(col) is range:
                for c, v in enumerate(slots[col.start:col.stop]):
                    merged[c] += v
            else:
                for c, slot in enumerate(col):
                    merged[c] += slots[slot]
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
        slots += out
        choices.append(arg)

    value = 0.0
    for slot in sched.scalars:
        value += slots[slot]

    arms = [0] * len(sched.steps)         # one step per agent
    for step, arg in zip(reversed(sched.steps), reversed(choices)):
        ctx = 0
        for agent, w in zip(step.rest_scope, step.rest_weights):
            ctx += arms[agent] * w
        arms[step.agent] = arg[ctx]
    return tuple(arms), value


def ve_argmax(h: Hypergraph, scores: Sequence[float]) -> EliminationResult:
    """Arg-maximize sum_e scores[a^e] over joint assignments by variable
    elimination. Exact up to rounding: ties resolve to the smallest
    mixed-radix joint index when the sums are exact; otherwise the pick
    can differ from `brute_argmax`'s by an ulp of the total (see the
    module docstring). The scores and their sum must be finite.

    The first COMPILE_AFTER calls on a graph run the interpreter; the
    next compiles the graph's kernel, which every later call runs. Both
    add the same floats in the same order and compare with the same
    strict >, so results do not depend on the path. A graph with a
    merged table over DEFAULT_BRUTE_CAP cells, or cell maps over
    DEFAULT_BRUTE_CAP entries in all, raises ValueError."""
    scores = _checked_scores(scores, h.num_local_arms)
    sched = h._ve_schedule
    if sched is None:
        sched = h._ve_schedule = _build_schedule(h)
    kernel = sched.kernel
    if kernel is None:
        sched.calls += 1
        if sched.calls <= COMPILE_AFTER:
            return EliminationResult(*_interpret(sched, scores), sched.op_count)
        kernel = sched.kernel = _compile_kernel(sched)
    arms, value = kernel(scores)
    return EliminationResult(arms, value, sched.op_count)


def _joint_blocks(h: Hypergraph, scores: Sequence[float]) -> Iterator[tuple[int, np.ndarray]]:
    """An iterator of (first joint index, totals) over the blocks of the
    joint index, in index order; a block's axes run from its highest agent
    to its lowest, so `block.T` is in joint order. The scores are checked,
    and a joint space over DEFAULT_BRUTE_CAP assignments refused, when this
    is called, before anything is allocated."""
    s = np.asarray(_checked_scores(scores, h.num_local_arms), dtype=np.float64)
    if h.num_joint_arms > DEFAULT_BRUTE_CAP:
        raise ValueError(
            f"joint arm space has {h.num_joint_arms} assignments, exceeding the oracle "
            f"cap {DEFAULT_BRUTE_CAP}")
    # one axis per agent with more than one arm, in agent order; axis[i] is
    # agent i's, -1 if it has one arm
    axis, counts = [], []
    for k in h.arm_counts:
        axis.append(len(counts) if k > 1 else -1)
        if k > 1:
            counts.append(k)
    # a block fixes axes 0 .. lead - 1, each while the block keeps BRUTE_BLOCK cells
    lead, block = 0, h.num_joint_arms
    while lead < len(counts) and block // counts[lead] >= BRUTE_BLOCK:
        block //= counts[lead]
        lead += 1
    last = lead - 1        # the partial table is over axes last, last - 1, .. lead
    steps = []
    for members, ws, offset in zip(h.groups, h.group_weights, h.local_offsets):
        last = max(last, *map(axis.__getitem__, members))
        strides = [0] * (last + 1 - lead)
        fixed = []         # (axis, byte stride) of the members a block fixes
        for i, w in zip(members, ws):
            a = axis[i]
            if a >= lead:
                strides[last - a] = 8 * w
            elif a >= 0:
                fixed.append((a, 8 * w))
        steps.append((tuple(counts[lead:last + 1][::-1]), 8 * offset, strides, fixed))
    return _summed_blocks(s, counts[:lead], block, steps)


def _summed_blocks(s: np.ndarray, lead_counts: list[int], block: int,
                   steps: list) -> Iterator[tuple[int, np.ndarray]]:
    for b, arms in enumerate(itertools.product(*map(range, lead_counts))):
        partial = np.zeros(1)
        for shape, offset, strides, fixed in steps:
            for a, w in fixed:
                offset += arms[a] * w
            view = np.ndarray(shape, np.float64, s, offset, strides)
            # without order="C" numpy lays a grown table out after the
            # view's strides, and the adds run about 20 times slower
            partial = np.add(partial, view, out=partial if partial.shape == shape else None,
                             order="C")
        yield b * block, partial


def joint_totals(h: Hypergraph, scores: Sequence[float]) -> np.ndarray:
    """sum_e scores[a^e] for every joint assignment, indexed by the
    mixed-radix joint index, each bitwise `assignment_value`'s.
    Materializes the full joint space. The scores are checked as
    `ve_argmax` checks them; a joint space over DEFAULT_BRUTE_CAP
    assignments is refused before anything is allocated."""
    blocks = _joint_blocks(h, scores)
    totals = np.empty(h.num_joint_arms)
    for start, block in blocks:
        totals[start:start + block.size].reshape(block.shape[::-1])[...] = block.T
    return totals


def brute_argmax(h: Hypergraph, scores: Sequence[float]) -> EliminationResult:
    """Exhaustive-enumeration oracle for ve_argmax. Independent of the
    elimination code path: evaluates sum_e scores[a^e] in group order for
    every joint assignment and keeps the first maximum (= smallest joint
    index). Holds about two blocks, never the joint table. A joint space
    over DEFAULT_BRUTE_CAP assignments is refused before anything is
    allocated. `op_count` is the logical count, joint arms x groups."""
    best = value = None
    for start, block in _joint_blocks(h, scores):
        top = block.max()
        if best is None or top > value:
            # the smallest joint index among the block's maxima
            cells = np.unravel_index(np.flatnonzero(block == top), block.shape)
            best = start + int(np.ravel_multi_index(cells[::-1], block.shape[::-1]).min())
            value = float(top)
        del block          # freed before the next block is summed
    return EliminationResult(h.decode_joint(best), value, h.num_joint_arms * h.num_groups)


def assignment_value(h: Hypergraph, scores: Sequence[float],
                     arms: Sequence[int]) -> float:
    """Recompute sum_e scores[a^e] for one assignment, accumulating in
    ascending group order (the same order the brute oracle uses)."""
    value = 0.0
    for j in h.flat_indices(arms):
        value += scores[j]
    return value
