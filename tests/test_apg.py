import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersets.apg import (
    Apg,
    Partition,
    _refine,
    is_well_founded,
    pointed_isomorphic,
    quotient,
    rank_map,
    trim_to_accessible,
)
from hypersets.errors import NotWellFounded, SizeLimitExceeded
from hypersets.random_graphs import random_apg

from oracles import brute_force_pointed_iso, reference_quotient

fs = frozenset


@st.composite
def raw_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return {
        u: draw(st.lists(st.integers(0, n - 1), max_size=4))
        for u in range(n)
    }


class TestTrim:
    def test_drops_unreachable_self_loop(self):
        g, trans = trim_to_accessible({0: [0], 1: [0]}, 0)
        assert g.node_count == 1
        assert g.children == (fs([0]),)
        assert trans == {0: 0}

    def test_identity_on_accessible_cycle(self):
        g, trans = trim_to_accessible({0: [1], 1: [2], 2: [0]}, 0)
        assert g.node_count == 3
        assert trans == {0: 0, 1: 1, 2: 2}

    def test_reachability_only(self):
        g, trans = trim_to_accessible({"root": ["a"], "a": [], "b": ["a"]}, "root")
        assert g.node_count == 2
        assert "b" not in trans

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_apg(rng, 10)
            raw = {u: sorted(g.children[u]) for u in range(g.node_count)}
            g2, trans = trim_to_accessible(raw, g.root)
            assert g2.children == g.children
            assert all(trans[u] == u for u in range(g.node_count))

    @given(raw_graphs())
    @settings(max_examples=150, deadline=None)
    def test_output_satisfies_invariants(self, raw):
        g, _ = trim_to_accessible(raw, 0)
        # the Apg constructor re-validates range and accessibility
        Apg(g.children, g.root, g.labels)


class TestWellFoundedAndRank:
    def test_empty_set(self):
        assert is_well_founded(Apg((fs(),), 0))

    def test_quine_atom(self):
        assert not is_well_founded(Apg((fs([0]),), 0))

    def test_chain(self):
        g = Apg((fs([1]), fs([2]), fs()), 0)
        assert is_well_founded(g)

    def test_rank_empty(self):
        assert rank_map(Apg((fs(),), 0)) == {0: 0}

    def test_rank_numeral_two(self):
        g = Apg((fs([1, 2]), fs([2]), fs()), 0)
        assert rank_map(g)[0] == 2

    def test_rank_diamond(self):
        # root -> {a, b}, a -> b, b childless
        g = Apg((fs([1, 2]), fs([2]), fs()), 0)
        assert rank_map(g) == {2: 0, 1: 1, 0: 2}

    def test_rank_raises_on_cycle(self):
        with pytest.raises(NotWellFounded):
            rank_map(Apg((fs([0]),), 0))

    def test_rank_decreases_along_edges(self):
        rng = random.Random(5)
        from hypersets.random_graphs import random_well_founded_apg

        for _ in range(200):
            g = random_well_founded_apg(rng, 10)
            ranks = rank_map(g)
            for u in range(g.node_count):
                for v in g.children[u]:
                    assert ranks[v] < ranks[u]


class TestPointedIsomorphic:
    def test_self_loops(self):
        m = pointed_isomorphic(Apg((fs([0]),), 0), Apg((fs([0]),), 0))
        assert m == {0: 0}

    def test_size_mismatch(self):
        assert pointed_isomorphic(Apg((fs([0]),), 0), Apg((fs([1]), fs([0])), 0)) is None

    def test_two_cycle_rerooted(self):
        g1 = Apg((fs([1]), fs([0])), 0)
        g2 = Apg((fs([1]), fs([0])), 1)
        assert pointed_isomorphic(g1, g2) is not None

    def test_one_child_tuple_under_two_roots(self):
        # The search colours one graph alone only for one graph under one
        # root; the same child sets under another root are a second graph.
        ch = (fs([1]), fs([0, 1]))
        assert pointed_isomorphic(Apg(ch, 0), Apg(ch, 1)) is None
        ring = (fs([1]), fs([2]), fs([0]))
        assert pointed_isomorphic(Apg(ring, 0), Apg(ring, 1)) == {0: 1, 1: 2, 2: 0}

    def test_cap(self):
        g = Apg((fs([0]),), 0)
        with pytest.raises(SizeLimitExceeded):
            pointed_isomorphic(g, g, cap=0)

    @pytest.mark.parametrize("ch1, ch2, parents_split", [
        # One leaf is shared by 1 and 2, or reached from 2 and the root:
        # child counts colour both graphs alike, parent counts do not.
        ((fs([1, 2, 4]), fs([3]), fs([3]), fs(), fs()), (fs([1, 2, 4]), fs([3]), fs([4]), fs(), fs()), True),
        # Two self-loops against a 2-cycle: only the edge checks tell them apart.
        ((fs([1, 2]), fs([1]), fs([2])), (fs([1, 2]), fs([2]), fs([1])), False),
    ], ids=["shared-leaf", "loops-against-cycle"])
    def test_told_apart_by_parent_counts_or_edge_checks(self, ch1, ch2, parents_split):
        # Colours over the union with the roots seeded, as the search makes them.
        n = len(ch1)
        union = [*ch1, *(fs(v + n for v in kids) for kids in ch2)]
        init = [int(u in (0, n)) for u in range(2 * n)]
        for parents_too, split in [(False, False), (True, parents_split)]:
            colors = _refine(union, init, counting=True, parents_too=parents_too)
            assert (sorted(colors[:n]) != sorted(colors[n:])) == split
        for g1, g2 in [(Apg(ch1, 0), Apg(ch2, 0)), (Apg(ch2, 0), Apg(ch1, 0))]:
            assert pointed_isomorphic(g1, g2) is None
            assert not brute_force_pointed_iso(g1, g2)

    def test_matches_brute_force(self):
        rng = random.Random(123)
        for _ in range(300):
            g1 = random_apg(rng, 7)
            g2 = random_apg(rng, 7)
            assert (pointed_isomorphic(g1, g2) is not None) == brute_force_pointed_iso(g1, g2)

    def test_result_is_an_isomorphism(self):
        rng = random.Random(321)
        hits = 0
        while hits < 50:
            g1 = random_apg(rng, 8)
            perm = list(range(g1.node_count))
            rng.shuffle(perm)
            children = [None] * g1.node_count
            for u in range(g1.node_count):
                children[perm[u]] = fs(perm[v] for v in g1.children[u])
            g2 = Apg(tuple(children), perm[g1.root])
            m = pointed_isomorphic(g1, g2)
            assert m is not None
            assert m[g1.root] == g2.root
            for u in range(g1.node_count):
                assert fs(m[v] for v in g1.children[u]) == g2.children[m[u]]
            hits += 1


class TestQuotient:
    def test_discrete_is_isomorphic_copy(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_apg(rng, 9)
            q, proj = quotient(g, Partition.discrete(g.node_count))
            assert q.node_count == g.node_count
            assert pointed_isomorphic(g, q) is not None
            assert sorted(proj) == list(range(g.node_count))

    def test_three_cycle_single_class(self):
        g = Apg((fs([1]), fs([2]), fs([0])), 0)
        q, proj = quotient(g, Partition.single(3))
        assert q.node_count == 1 and q.children[0] == fs([0])

    def test_parallel_edges_merge(self):
        # x -> {p, q}, p -> q, q -> q with classes {x}, {p,q}
        g = Apg((fs([1, 2]), fs([2]), fs([2])), 0)
        q, proj = quotient(g, Partition((0, 1, 1), 2))
        assert q.node_count == 2
        assert q.children[proj[0]] == fs([proj[1]])
        assert q.children[proj[1]] == fs([proj[1]])

    def test_numbering_matches_reference(self):
        # Breadth-first from the root class, child classes by smallest
        # member: under arbitrary partitions and under each mode's, with
        # their class ids shuffled, so that no id order equals that one.
        from hypersets.equivalence import counting_partition, finsler_partition, max_bisimulation

        rng = random.Random(27)
        for i in range(1200):
            g = random_apg(rng, 12)
            n = g.node_count
            k = rng.randint(1, n)
            arbitrary = Partition.from_class_of(rng.randrange(k) for _ in range(n))
            mode = (max_bisimulation, counting_partition, finsler_partition)[i % 3](g)
            for p in (arbitrary, mode):
                ids = rng.sample(range(p.class_count), p.class_count)
                part = Partition(tuple(ids[c] for c in p.class_of), p.class_count)
                q, proj = quotient(g, part)
                ref_q, ref_proj = reference_quotient(g, part)
                assert q.children == ref_q.children and proj == ref_proj

    def test_projection_satisfies_decoration_equation(self):
        rng = random.Random(31)
        from hypersets.equivalence import max_bisimulation

        for _ in range(100):
            g = random_apg(rng, 10)
            p = max_bisimulation(g)
            q, proj = quotient(g, p)
            for u in range(g.node_count):
                assert fs(proj[v] for v in g.children[u]) == q.children[proj[u]]


class TestValidation:
    def test_partition_ids_must_be_the_class_range(self):
        # class_count 0 admits only the empty partition
        for class_of, count in (((0, 0), 0), ((0,), 0), ((1,), 1), ((0, 2), 2), ((0,), 2)):
            with pytest.raises(ValueError):
                Partition(class_of, count)
        assert Partition((), 0) == Partition.single(0) == Partition.discrete(0)
        assert Partition((), 0).classes() == []

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError):
            Apg((fs(), fs()), 0)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Apg((fs([2]),), 0)
