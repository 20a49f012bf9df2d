import math
import random

import numpy as np
import pytest

from mamab.elimination import assignment_value, brute_argmax, ve_argmax
from mamab.hypergraph import Hypergraph, enumerate_joint

from test_hypergraph import chain_groups, random_hypergraph


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
        h = Hypergraph(8, [2] * 8, chain_groups(8, 2))
        with pytest.raises(ValueError, match="cap"):
            brute_argmax(h, [0.0] * h.num_local_arms, cap=255)

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
