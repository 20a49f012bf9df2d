import functools
import itertools
import math
import random
import re

import numpy as np
import pytest

from mamab import elimination
from mamab.elimination import (
    CHUNK_LINES, COMPILE_AFTER, DEFAULT_BRUTE_CAP, _build_schedule, _compile_kernel,
    _interpret, _kernel_source, assignment_value, brute_argmax, joint_totals, ve_argmax)
from mamab.environments import chain_env, gem_mining_env
from mamab.hypergraph import Hypergraph, enumerate_joint

from test_hypergraph import assert_integer_literals_only, chain_groups, random_hypergraph


def exhaustive_argmax(h, scores):
    """Reference oracle written against the indexing layer only: explicit
    Python enumeration, ascending-group accumulation, first max wins."""
    best_arms = None
    best_value = -math.inf
    for arms in enumerate_joint(h):
        v = 0.0
        for j in h.flat_indices(arms):
            v += scores[j]
        if v > best_value:
            best_value = v
            best_arms = arms
    return best_arms, best_value


def many_single_arm_graph():
    # 70 agents, 68 with one arm
    arm_counts = [1] * 70
    arm_counts[5] = 3
    arm_counts[60] = 2
    groups = [[i + 1, i] if i % 2 else [i, i + 1] for i in range(69)]
    groups.append([60, 33, 5])
    return Hypergraph(70, arm_counts, groups)


class TestSingleGroup:
    # reward means for a two-agent binary group, local order (0,0),(0,1),(1,0),(1,1)
    SCORES = [0.75, 1.0, 0.25, 0.9]

    def test_ve_on_lookup_table(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        res = ve_argmax(h, self.SCORES)
        assert res.argmax == (0, 1)
        assert res.value == 1.0

    def test_brute_matches(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        res = brute_argmax(h, self.SCORES)
        assert res.argmax == (0, 1)
        assert res.value == 1.0


class TestTieBreaking:
    def test_all_zero_scores(self):
        h = Hypergraph(4, [2] * 4, chain_groups(4, 2))
        res = ve_argmax(h, [0.0] * h.num_local_arms)
        assert res.argmax == (0, 0, 0, 0)
        assert res.value == 0.0
        bres = brute_argmax(h, [0.0] * h.num_local_arms)
        assert bres.argmax == (0, 0, 0, 0)

    def test_constant_scores(self):
        h = Hypergraph(3, [3, 2, 2], [[0, 1], [1, 2]])
        scores = [0.5] * h.num_local_arms
        assert ve_argmax(h, scores).argmax == (0, 0, 0)
        assert brute_argmax(h, scores).argmax == (0, 0, 0)

    def test_partial_tie_prefers_smaller_joint_index(self):
        # two singleton agents; agent 0 scores tie, agent 1 has a strict max
        h = Hypergraph(2, [2, 2], [[0], [1]])
        scores = [2.0, 2.0, 0.0, 5.0]
        assert ve_argmax(h, scores).argmax == (0, 1)
        assert brute_argmax(h, scores).argmax == (0, 1)


class TestBruteForce:
    def test_disjoint_singletons_hand_enumeration(self):
        # joint values: (0,0)=3, (0,1)=8, (1,0)=1, (1,1)=6
        h = Hypergraph(2, [2, 2], [[0], [1]])
        res = brute_argmax(h, [3.0, 1.0, 0.0, 5.0])
        assert res.argmax == (0, 1)
        assert res.value == 8.0

    def test_cap_enforced(self):
        h = Hypergraph(21, [2] * 21, chain_groups(21, 2))
        assert h.num_joint_arms == 2 * DEFAULT_BRUTE_CAP
        with pytest.raises(ValueError, match="cap"):
            brute_argmax(h, [0.0] * h.num_local_arms)

    def test_length_mismatch(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        with pytest.raises(ValueError, match="length"):
            brute_argmax(h, [0.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            ve_argmax(h, [0.0, 1.0])

    def test_op_count_is_full_scan(self):
        h = Hypergraph(3, [2, 2, 2], [[0, 1], [1, 2]])
        res = brute_argmax(h, [0.0] * h.num_local_arms)
        assert res.op_count == 8 * 2


class TestOracleEquivalence:
    def test_chain_m8_random_scores(self):
        h = Hypergraph(8, [2] * 8, chain_groups(8, 2))
        rng = random.Random(2024)
        for _ in range(20):
            scores = [rng.random() for _ in range(h.num_local_arms)]
            res = ve_argmax(h, scores)
            ref_arms, ref_value = exhaustive_argmax(h, scores)
            assert res.argmax == ref_arms
            assert abs(res.value - ref_value) < 1e-9

    def test_random_instances_match_brute(self):
        rng = random.Random(555)
        for _ in range(200):
            h = random_hypergraph(rng)
            if h.num_joint_arms > 1 << 16:
                continue
            scores = [rng.random() for _ in range(h.num_local_arms)]
            res = ve_argmax(h, scores)
            ref = brute_argmax(h, scores)
            assert abs(res.value - ref.value) < 1e-9
            assert res.argmax == ref.argmax

    def test_unsorted_group_members(self):
        # group order affects local indexing but not the optimum
        h = Hypergraph(3, [2, 3, 2], [[2, 0], [1]])
        rng = random.Random(11)
        for _ in range(50):
            scores = [rng.random() for _ in range(h.num_local_arms)]
            res = ve_argmax(h, scores)
            ref_arms, ref_value = exhaustive_argmax(h, scores)
            assert res.argmax == ref_arms
            assert abs(res.value - ref_value) < 1e-9


class TestResultInvariants:
    def test_value_consistent_with_projection(self):
        rng = random.Random(31)
        for _ in range(60):
            h = random_hypergraph(rng)
            scores = [rng.uniform(-3, 3) for _ in range(h.num_local_arms)]
            res = ve_argmax(h, scores)
            assert abs(res.value - assignment_value(h, scores, res.argmax)) < 1e-9

    def test_group_constant_shift_keeps_argmax(self):
        rng = random.Random(77)
        for _ in range(40):
            h = random_hypergraph(rng)
            scores = [rng.random() for _ in range(h.num_local_arms)]
            base = ve_argmax(h, scores)
            e = rng.randrange(h.num_groups)
            shift = rng.choice([0.5, 1.25, -2.0, 4.0])
            lo = h.local_offsets[e]
            hi = lo + h.group_sizes[e]
            shifted = list(scores)
            for j in range(lo, hi):
                shifted[j] += shift
            moved = ve_argmax(h, shifted)
            assert moved.argmax == base.argmax
            assert abs(moved.value - (base.value + shift)) < 1e-9

    def test_op_count_structure_only(self):
        h = Hypergraph(6, [2] * 6, chain_groups(6, 2))
        rng = random.Random(5)
        counts = set()
        for _ in range(5):
            scores = [rng.random() for _ in range(h.num_local_arms)]
            counts.add(ve_argmax(h, scores).op_count)
        assert len(counts) == 1


class TestChainComplexity:
    def test_op_count_ratio_on_binary_chains(self):
        ratios = []
        for m in (4, 8, 16, 32, 64):
            h = Hypergraph(m, [2] * m, chain_groups(m, 2))
            res = ve_argmax(h, [0.0] * h.num_local_arms)
            ratios.append(res.op_count / h.num_local_arms)
        assert all(r <= 4.0 for r in ratios)
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.10

    def test_chain_op_count_closed_form(self):
        # consuming each pair factor (4 cells) plus each derived unary
        # factor (2 cells) gives 6*(m-1) reads total
        for m in (4, 8, 16):
            h = Hypergraph(m, [2] * m, chain_groups(m, 2))
            res = ve_argmax(h, [0.0] * h.num_local_arms)
            assert res.op_count == 6 * (m - 1)


class TestNumericEdgeCases:
    def test_negative_scores(self):
        h = Hypergraph(3, [2, 2, 2], chain_groups(3, 2))
        scores = [-1.0, -2.0, -0.5, -3.0, -4.0, -0.25, -1.5, -2.5]
        res = ve_argmax(h, scores)
        ref = brute_argmax(h, scores)
        assert res.argmax == ref.argmax
        assert abs(res.value - ref.value) < 1e-9

    def test_numpy_input_accepted(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        res = ve_argmax(h, np.array([0.75, 1.0, 0.25, 0.9]))
        assert res.argmax == (0, 1)

    def test_brute_rejects_nan(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        with pytest.raises(ValueError, match="finite"):
            brute_argmax(h, [0.0, float("nan"), 0.0, 0.0])

    def test_ve_rejects_non_finite(self):
        # a NaN used to come back as the argmax (0, 0); the best finite
        # answer is (1, 0)
        h = Hypergraph(2, [2, 2], [[0, 1]])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="contains non-finite entries"):
                ve_argmax(h, [bad, 1.0, 2.0, 0.5])

    def test_ve_names_an_overflowing_sum(self):
        # every entry is finite; only their sum is not
        h = Hypergraph(2, [2, 2], [[0, 1]])
        with pytest.raises(ValueError, match="entries are finite, but their sum overflows"):
            ve_argmax(h, [1e308, 1e308, 0.0, 0.0])

    def test_brute_names_an_overflowing_sum(self):
        # the totals of (0, 0) and (1, 0) overflow; the oracle used to
        # return inf for them with a numpy RuntimeWarning
        h = Hypergraph(2, [2, 2], [[0, 1], [1]])
        with pytest.raises(ValueError, match="entries are finite, but their sum overflows"):
            brute_argmax(h, [1e308] * 5 + [0.0])

    @pytest.mark.filterwarnings("error")
    def test_cancelling_scores_that_overflow_refused(self):
        # the scores sum to 0, but the total of (0, 0) is 2e308: VE used to
        # return it as inf and the oracle to overflow in numpy
        h = Hypergraph(2, [2, 2], [[0], [1]])
        scores = [1e308, -1e308, 1e308, -1e308]
        for maximizer in (ve_argmax, brute_argmax):
            with pytest.raises(ValueError, match="entries are finite, but their sum overflows"):
                maximizer(h, scores)


class TestJointTotalsLayout:
    """joint_totals lays the joint space out as one numpy axis per agent;
    every cell must hold exactly the ascending-group sum that
    assignment_value computes for the assignment at that joint index."""

    def check_layout(self, h, scores):
        totals = joint_totals(h, scores)
        assert totals.shape == (h.num_joint_arms,)
        for j, arms in enumerate(enumerate_joint(h)):
            assert totals[j] == assignment_value(h, scores, arms)

    def test_random_hypergraphs(self):
        # shuffled members, single-arm agents and mixed arm counts
        rng = random.Random(4242)
        for _ in range(60):
            h = random_hypergraph(rng, max_agents=7, max_arms=4)
            if h.num_joint_arms > 4096:
                continue
            scores = [rng.gauss(0.0, 1.0) for _ in range(h.num_local_arms)]
            self.check_layout(h, scores)

    def test_many_single_arm_agents(self):
        # more axes than numpy allows, unless the single-arm agents get none
        h = many_single_arm_graph()
        with pytest.raises(ValueError):
            np.zeros(h.arm_counts)
        rng = random.Random(7)
        scores = [rng.gauss(0.0, 1.0) for _ in range(h.num_local_arms)]
        self.check_layout(h, scores)
        assert brute_argmax(h, scores).argmax == ve_argmax(h, scores).argmax


def max_merged(sched):
    # cells of the schedule's largest merged table
    return max(step.out_size * step.k for step in sched.steps)


def star(m):
    # agent m - 1 is the centre, so it is eliminated first and its merged
    # table spans every agent
    return Hypergraph(m, [2] * m, [[i, m - 1] for i in range(m - 1)])


def gem_graph(villages, env_seed):
    return gem_mining_env(villages, random.Random(env_seed)).graph


class TestCompiledKernel:
    """The compiled kernel against the interpreter it replaces and the
    brute-force oracle: the same argmax and a bitwise-equal value."""

    def check(self, h, *score_vectors, brute=True):
        sched = _build_schedule(h)
        kernel = _compile_kernel(sched)
        assert not isinstance(kernel, functools.partial)
        for scores in score_vectors:
            arms, value = kernel(scores)
            ref_arms, ref_value = _interpret(sched, scores)
            assert arms == ref_arms
            assert value.hex() == ref_value.hex()
            if brute:
                assert arms == brute_argmax(h, scores).argmax

    @staticmethod
    def compilable(h):
        # small enough for the brute-force oracle
        return h.num_joint_arms <= 1 << 14

    def test_random_hypergraphs(self):
        # shuffled (unsorted) members, single-arm agents, arm counts 1-4,
        # leaf tables of up to 4**5 = 1,024 cells, which span chunks
        rng = random.Random(9090)
        wide = [Hypergraph(6, [4, 4, 4, 4, 4, 2], [[3, 0, 4, 1, 2], [5, 2], [0, 5]]),
                Hypergraph(7, [2, 4, 4, 4, 4, 4, 3], [[6, 0], [2, 5, 1, 6, 4], [3, 1]])]
        checked = spanning = largest = 0
        for h in wide + [random_hypergraph(rng, max_agents=7, max_arms=4, max_group_size=5)
                         for _ in range(300)]:
            if not self.compilable(h):
                continue
            for _ in range(3):
                self.check(h, [rng.uniform(-2.0, 2.0) for _ in range(h.num_local_arms)])
            checked += 1
            spanning += max_merged(_build_schedule(h)) > CHUNK_LINES
            largest = max(largest, *h.group_sizes)
        assert checked > 200
        assert spanning > 10
        assert largest == 1024

    def test_gem_mining(self):
        # every Gem Mining graph from 10 villages up merges tables of
        # 128-256 cells, more than one chunk holds
        rng = random.Random(42)
        for villages in (10, 20, 50, 100):
            for env_seed in (42, 43, 44):
                h = gem_graph(villages, env_seed)
                self.check(h, *([rng.choice((0.0, 0.5, rng.random()))
                                 for _ in range(h.num_local_arms)] for _ in range(3)),
                           brute=False)

    def test_gem_mining_compiles_after_reuse(self):
        h = gem_graph(10, 42)
        assert max_merged(_build_schedule(h)) > CHUNK_LINES
        rng = random.Random(10)
        for _ in range(COMPILE_AFTER + 1):
            scores = [rng.random() for _ in range(h.num_local_arms)]
            res = ve_argmax(h, scores)
        assert not isinstance(h._ve_schedule.kernel, functools.partial)
        arms, value = _interpret(h._ve_schedule, scores)
        assert res.argmax == arms
        assert res.value.hex() == value.hex()

    def test_many_single_arm_agents(self):
        h = many_single_arm_graph()
        rng = random.Random(70)
        for _ in range(10):
            self.check(h, [rng.gauss(0.0, 1.0) for _ in range(h.num_local_arms)])

    def test_ties(self):
        rng = random.Random(17)
        for _ in range(100):
            h = random_hypergraph(rng, max_agents=6, max_arms=4)
            if not self.compilable(h):
                continue
            n = h.num_local_arms
            self.check(h, [0.0] * n)
            self.check(h, [0.5] * n)
            # decoys: few distinct values, so many assignments tie
            self.check(h, [float(rng.choice((0, 1, 2))) for _ in range(n)])

    def test_signed_zero_survives(self):
        h = Hypergraph(2, [1, 1], [[0], [1]])
        self.check(h, [-0.0, -0.0])

    def test_multi_chunk_graphs(self):
        # chain m=100 spans several forward chunks; m=150 also splits the
        # backtrack, whose chunks read earlier agents' arms from A
        rng = random.Random(100)
        for m in (100, 150):
            h = Hypergraph(m, [2] * m, chain_groups(m, 2))
            forward, backward = _kernel_source(_build_schedule(h))
            assert len(forward) > 1
            assert len(backward) == (2 if m == 150 else 1)
            sched = _build_schedule(h)
            kernel = _compile_kernel(sched)
            for _ in range(20):
                scores = [rng.choice((0.0, 0.25, rng.random())) for _ in range(h.num_local_arms)]
                arms, value = kernel(scores)
                ref_arms, ref_value = _interpret(sched, scores)
                assert arms == ref_arms
                assert value.hex() == ref_value.hex()

    def test_backtrack_reads_earlier_arms_inline(self):
        # chain m=150 splits the backtrack; the second chunk reads the arm
        # the first assigned last as A[i] inside its G index, loading no local
        h = Hypergraph(150, [2] * 150, chain_groups(150, 2))
        sched = _build_schedule(h)
        _, backward = _kernel_source(sched)
        assert len(backward) == 2
        split = int(re.search(r"return A \+ \(a0, .* a(\d+), \)", backward[0]).group(1)) + 1
        assert f"a{split} = G[{149 - split}][A[{split - 1}]]" in backward[1]
        for text in backward:
            assert not re.search(r"a\d+ = A\[", text)
        kernel = _compile_kernel(sched)
        rng = random.Random(150)
        for _ in range(20):
            scores = [rng.choice((0.0, 0.25, rng.random())) for _ in range(h.num_local_arms)]
            arms, value = kernel(scores)
            ref_arms, ref_value = _interpret(sched, scores)
            assert arms == ref_arms
            assert value.hex() == ref_value.hex()

    def test_identical_across_the_switch(self):
        rng = random.Random(33)
        for h in (Hypergraph(8, [2, 3, 1, 2, 4, 2, 1, 3], [[1, 0], [2, 1, 3], [3, 4],
                                                          [6, 5, 4], [7, 6], [0, 7]]),
                  many_single_arm_graph()):
            probe = [rng.choice((0.0, 1.0, rng.random())) for _ in range(h.num_local_arms)]
            first = ve_argmax(h, probe)
            sched = h._ve_schedule
            assert sched.kernel is None
            for _ in range(COMPILE_AFTER - 1):
                ve_argmax(h, [rng.random() for _ in range(h.num_local_arms)])
            assert sched.kernel is None and sched.calls == COMPILE_AFTER
            again = ve_argmax(h, probe)       # call COMPILE_AFTER + 1 compiles
            assert h._ve_schedule is sched
            assert sched.kernel is not None
            assert not isinstance(sched.kernel, functools.partial)
            assert again.argmax == first.argmax
            assert again.value.hex() == first.value.hex()
            assert again.op_count == first.op_count

    def test_source_interpolates_only_schedule_integers(self):
        rng = random.Random(5)
        graphs = [random_hypergraph(rng, max_agents=7, max_arms=4, max_group_size=5)
                  for _ in range(40)]
        graphs = [h for h in graphs if self.compilable(h)]
        graphs += [many_single_arm_graph(), Hypergraph(150, [2] * 150, chain_groups(150, 2)),
                   gem_graph(10, 42), gem_graph(20, 42), star(10)]
        name = r"(s|T|G|A|v|[xg]\d+_?\d*|a\d+)"
        for h in graphs:
            forward, backward = _kernel_source(_build_schedule(h))
            for text in forward + backward:
                # the header, the budget, which reserves the chunk's closing
                # `T += (...)`, and the final return, which no chunk reserves
                assert len(text.splitlines()) <= 2 + CHUNK_LINES
                assert_integer_literals_only(text, ("f", "b"), name)

    def test_each_forward_chunk_appends_what_later_steps_read(self):
        # every forward chunk but the last ends with one `T += (...)` of the
        # cells it computed whose table the step open at the cut, or a later
        # one, reads; the return reads the scalars; no chunk stores T[slot]
        for h in (chain_env(100, 2, "poisson").graph, chain_env(20, 3, "bernoulli").graph,
                  gem_graph(20, 42), star(10)):
            sched = _build_schedule(h)
            steps = sched.steps
            reader = dict.fromkeys(sched.scalars, len(steps))
            for j, step in enumerate(steps):
                for col in step.inputs:
                    reader[col[0]] = j
            # output slot -> (its step, the step that reads its table)
            owner = {step.out_slot + r: (j, reader[step.out_slot])
                     for j, step in enumerate(steps) for r in range(step.out_size)}
            forward, _ = _kernel_source(sched)
            assert len(forward) > 1
            computed = [[int(x) for x in re.findall(r"^    x(\d+) = ", text, re.M)]
                        for text in forward]
            for c, text in enumerate(forward):
                assert not re.search(r"T\[\d+\] =", text)
                appends = re.findall(r"^    T \+= .*$", text, re.M)
                if c == len(forward) - 1:
                    assert appends == []
                    continue
                cut = owner[computed[c + 1][0]][0]        # the step open at the cut
                kept = [x for x in computed[c] if owner[x][1] >= cut]
                assert appends == [f"    T += ({''.join(f'x{x}, ' for x in kept)})"]
                assert text.endswith(appends[0] + "\n")


class TestSlotSpace:
    """Schedules read the score vector in place: slots 0 .. A_loc-1 are
    the scores in group order, and each step output takes the next free
    slots."""

    def test_columns_match_decoded_assignments(self):
        # shuffled (unsorted) members and single-arm agents; every merged
        # cell's union assignment is decoded by itertools.product
        rng = random.Random(4242)
        for _ in range(200):
            h = random_hypergraph(rng, max_agents=6, max_arms=4)
            sched = _build_schedule(h)
            # first slot -> (scope, weights) of every alive table; popping by
            # col[0] raises if a column names no alive table
            tables = {h.local_offsets[e]: (members, h.group_weights[e])
                      for e, members in enumerate(h.groups)}
            next_slot = h.num_local_arms
            for step in sched.steps:
                union = step.rest_scope + (step.agent,)
                assert step.out_slot == next_slot
                for col in step.inputs:
                    base = col[0]
                    scope, weights = tables.pop(base)
                    cells = list(itertools.product(*(range(h.arm_counts[i]) for i in union)))
                    assert len(col) == len(cells) == step.out_size * step.k
                    for slot, arms in zip(col, cells):
                        arm_of = dict(zip(union, arms))
                        assert slot == base + sum(arm_of[i] * w for i, w in zip(scope, weights))
                    assert isinstance(col, range) == (tuple(scope) == union)
                tables[step.out_slot] = (step.rest_scope, step.rest_weights)
                next_slot += step.out_size
            assert sched.scalars == sorted(tables)

    def test_inputs_are_the_alive_factors_holding_the_agent(self):
        # each step consumes, in ascending first-slot order, exactly the
        # tables still alive whose scope holds its agent, found by a literal scan
        rng = random.Random(5150)
        for _ in range(200):
            h = random_hypergraph(rng, max_agents=7, max_arms=4)
            sched = _build_schedule(h)
            scopes = dict(zip(h.local_offsets, h.groups))
            for step in sched.steps:
                expected = [b for b in sorted(scopes) if step.agent in scopes[b]]
                assert [col[0] for col in step.inputs] == expected
                for b in expected:
                    del scopes[b]
                scopes[step.out_slot] = step.rest_scope
            assert sorted(scopes) == sched.scalars

    def test_score_list_left_unchanged(self):
        rng = random.Random(8)
        for h in (Hypergraph(5, [2, 3, 1, 2, 2], [[1, 0], [2, 1, 3], [4, 3], [0, 4]]),
                  many_single_arm_graph()):
            for call in range(COMPILE_AFTER + 3):      # both paths
                scores = [rng.random() for _ in range(h.num_local_arms)]
                before = list(scores)
                ve_argmax(h, scores)
                assert scores == before, f"call {call + 1}"
            sched = h._ve_schedule
            assert sched.kernel is not None
            for run in (functools.partial(_interpret, sched), sched.kernel):
                run(scores)
                assert scores == before


class TestScheduleSize:
    def test_star_with_late_centre_compiles(self):
        h = star(10)
        sched = _build_schedule(h)
        assert max_merged(sched) == 1 << 10
        forward, _ = _kernel_source(sched)
        assert len(forward) > 8               # the 1,024-cell table spans chunks
        h._ve_schedule = sched
        sched.calls = COMPILE_AFTER           # the next call compiles
        scores = [float(j % 5) for j in range(h.num_local_arms)]
        res = ve_argmax(h, scores)
        assert sched.kernel is not None
        assert not isinstance(sched.kernel, functools.partial)
        assert res.argmax == brute_argmax(h, scores).argmax
        arms, value = _interpret(sched, scores)
        assert res.argmax == arms
        assert res.value.hex() == value.hex()

    def test_larger_star_refused_before_allocating(self, monkeypatch):
        h = star(22)
        build_map = elimination._cell_map

        def capped_map(union_scope, union_counts, *rest):
            # a table past the cap must never be laid out: its cell maps
            # alone would take gigabytes
            assert math.prod(union_counts) <= DEFAULT_BRUTE_CAP
            return build_map(union_scope, union_counts, *rest)

        monkeypatch.setattr(elimination, "_cell_map", capped_map)
        with pytest.raises(ValueError, match=r"agent 21 merges a table of 4194304 cells"):
            _build_schedule(h)
        with pytest.raises(ValueError, match="exceeding the cap"):
            ve_argmax(h, [0.0] * h.num_local_arms)

    def test_star_whose_cell_maps_pass_the_cap_refused(self, monkeypatch):
        # each of star(17)'s 16 leaf tables maps onto the centre's table of
        # 2**17 cells: every table fits the cap, but their cell maps, 2**21
        # entries in all, do not
        h = star(17)
        build_map = elimination._cell_map
        stored = []

        def counted_map(*args):
            col = build_map(*args)
            stored.append(len(col))
            assert sum(stored) <= DEFAULT_BRUTE_CAP
            return col

        monkeypatch.setattr(elimination, "_cell_map", counted_map)
        with pytest.raises(ValueError, match=r"cell maps would hold 1179648 entries by "
                                             r"agent 16, exceeding the cap 1048576"):
            _build_schedule(h)
        assert stored == [1 << 17] * 8
