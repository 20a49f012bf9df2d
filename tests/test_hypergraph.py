import itertools
import random

import pytest

from mamab.hypergraph import (
    AgentOutOfRangeError,
    DuplicateAgentError,
    EmptyGroupError,
    Hypergraph,
    HypergraphError,
    UncoveredAgentError,
    ZeroArmCountError,
    enumerate_joint,
)


def chain_groups(m, d):
    return [list(range(i, i + d)) for i in range(m - d + 1)]


def reference_local_count(arm_counts, groups):
    # independent evaluation of sum over groups of the product of member counts
    total = 0
    for g in groups:
        prod = 1
        for i in g:
            prod *= arm_counts[i]
        total += prod
    return total


class TestConstruction:
    def test_chain_d2_counts(self):
        h = Hypergraph(10, [2] * 10, chain_groups(10, 2))
        assert h.num_groups == 9
        assert h.num_local_arms == reference_local_count([2] * 10, chain_groups(10, 2))
        assert h.num_local_arms == 36

    def test_single_agent_single_group(self):
        h = Hypergraph(1, [3], [[0]])
        assert h.num_groups == 1
        assert h.num_local_arms == 3

    def test_chain_d3_counts(self):
        groups = chain_groups(10, 3)
        h = Hypergraph(10, [2] * 10, groups)
        assert h.num_groups == 8
        assert h.num_local_arms == reference_local_count([2] * 10, groups)
        assert h.num_local_arms == 64

    def test_fully_joint_group(self):
        h = Hypergraph(5, [3] * 5, [list(range(5))])
        assert h.num_local_arms == 3 ** 5

    def test_offsets_cumulative(self):
        h = Hypergraph(4, [2, 3, 2, 2], [[0, 1], [1, 2], [3]])
        assert h.local_offsets == (0, 6, 12)
        assert h.num_local_arms == 14

    def test_immutable_fields(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        assert isinstance(h.groups, tuple)
        assert isinstance(h.arm_counts, tuple)


class TestConstructionErrors:
    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            Hypergraph(2, [2, 2], [[0, 1], []])

    def test_duplicate_agent(self):
        with pytest.raises(DuplicateAgentError):
            Hypergraph(3, [2, 2, 2], [[0, 1, 1], [2]])

    def test_agent_out_of_range(self):
        with pytest.raises(AgentOutOfRangeError):
            Hypergraph(2, [2, 2], [[0, 2]])
        with pytest.raises(AgentOutOfRangeError):
            Hypergraph(2, [2, 2], [[-1, 0], [1]])

    def test_uncovered_agent(self):
        with pytest.raises(UncoveredAgentError):
            Hypergraph(3, [2, 2, 2], [[0, 1]])

    def test_zero_arm_count(self):
        with pytest.raises(ZeroArmCountError):
            Hypergraph(2, [2, 0], [[0, 1]])

    def test_length_mismatch(self):
        with pytest.raises(HypergraphError):
            Hypergraph(3, [2, 2], [[0, 1, 2]])

    def test_errors_are_distinct_types(self):
        classes = {EmptyGroupError, DuplicateAgentError, AgentOutOfRangeError,
                   UncoveredAgentError, ZeroArmCountError}
        assert len(classes) == 5
        for cls in classes:
            assert issubclass(cls, HypergraphError)


def within_group(h, arms, e):
    return h.flat_indices(arms)[e] - h.local_offsets[e]


class TestProjectLocal:
    def test_chain_middle_group(self):
        h = Hypergraph(4, [2] * 4, chain_groups(4, 2))
        # group 1 covers agents (1, 2); (1, 1) encodes to 1*2 + 1
        assert within_group(h, (0, 1, 1, 0), 1) == 3
        assert h.flat_indices((0, 1, 1, 0))[1] == h.local_offsets[1] + 3

    def test_singleton_identity(self):
        h = Hypergraph(3, [4, 4, 4], [[0], [1], [2]])
        for arms in [(0, 1, 2), (3, 3, 3), (2, 0, 1)]:
            for e in range(3):
                assert within_group(h, arms, e) == arms[e]

    def test_three_agent_binary(self):
        h = Hypergraph(3, [2, 2, 2], [[0, 1, 2]])
        assert within_group(h, (1, 1, 1), 0) == 7
        assert within_group(h, (1, 0, 1), 0) == 5

    def test_group_order_sets_significance(self):
        # group lists agent 2 first, so agent 2 is the most significant digit
        h = Hypergraph(3, [2, 2, 2], [[2, 0], [1]])
        assert within_group(h, (1, 0, 0), 0) == 1
        assert within_group(h, (0, 0, 1), 0) == 2


class TestEnumerateJoint:
    def test_order_m2(self):
        h = Hypergraph(2, [2, 2], [[0, 1]])
        assert list(enumerate_joint(h)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_count_m3(self):
        h = Hypergraph(3, [2, 2, 2], [[0, 1, 2]])
        assert len(list(enumerate_joint(h))) == 8

    def test_count_and_uniqueness_m10(self):
        h = Hypergraph(10, [2] * 10, chain_groups(10, 2))
        seen = set(enumerate_joint(h))
        assert len(seen) == 1024

    def test_matches_decode(self):
        h = Hypergraph(3, [2, 3, 2], [[0, 1], [1, 2]])
        for j, arms in enumerate(enumerate_joint(h)):
            assert h.decode_joint(j) == arms
            assert h.encode_joint(arms) == j


def random_hypergraph(rng, max_agents=6, max_arms=3, max_groups=6, max_group_size=3):
    m = rng.randint(1, max_agents)
    arm_counts = [rng.randint(1, max_arms) for _ in range(m)]
    agents = list(range(m))
    rng.shuffle(agents)
    groups = []
    i = 0
    while i < m:
        size = rng.randint(1, min(max_group_size, m - i))
        groups.append(agents[i:i + size])
        i += size
    while len(groups) < max_groups and rng.random() < 0.5:
        size = rng.randint(1, min(max_group_size, m))
        groups.append(rng.sample(range(m), size))
    return Hypergraph(m, arm_counts, groups)


class TestIndexingProperties:
    def test_projection_bijective_per_group(self):
        rng = random.Random(1234)
        for _ in range(50):
            h = random_hypergraph(rng)
            if h.num_joint_arms > 4096:
                continue
            for e, members in enumerate(h.groups):
                size = h.group_sizes[e]
                seen = set()
                counts = [h.arm_counts[i] for i in members]
                for combo in itertools.product(*(range(k) for k in counts)):
                    arms = [0] * h.num_agents
                    for i, a in zip(members, combo):
                        arms[i] = a
                    w = within_group(h, arms, e)
                    assert 0 <= w < size
                    seen.add(w)
                assert len(seen) == size

    def test_local_count_matches_projection_image(self):
        rng = random.Random(99)
        for _ in range(40):
            h = random_hypergraph(rng)
            if h.num_joint_arms > 4096:
                continue
            flats = set()
            for arms in enumerate_joint(h):
                flats.update(h.flat_indices(arms))
            assert len(flats) == h.num_local_arms
            assert flats == set(range(h.num_local_arms))

    def test_enumeration_size_property(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_hypergraph(rng, max_agents=5)
            expected = 1
            for k in h.arm_counts:
                expected *= k
            assignments = list(enumerate_joint(h))
            assert len(assignments) == expected
            assert len(set(assignments)) == expected

    def test_flat_indices_agree_with_reference(self):
        # Horner evaluation of each group's digits, first member most
        # significant, plus the running sum of group table sizes
        rng = random.Random(42)
        for _ in range(30):
            h = random_hypergraph(rng)
            arms = tuple(rng.randrange(k) for k in h.arm_counts)
            expected = []
            offset = 0
            for members in h.groups:
                within, size = 0, 1
                for i in members:
                    within = within * h.arm_counts[i] + arms[i]
                    size *= h.arm_counts[i]
                expected.append(offset + within)
                offset += size
            assert h.flat_indices(arms) == expected
