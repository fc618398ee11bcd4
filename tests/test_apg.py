import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersets.apg import (
    Apg,
    Partition,
    apg_from_json,
    apg_to_json,
    is_well_founded,
    pointed_isomorphic,
    quotient,
    rank_map,
    trim_to_accessible,
    unfold,
)
from hypersets.errors import NotWellFounded, SizeLimitExceeded
from hypersets.random_graphs import random_apg

from oracles import brute_force_pointed_iso

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


class TestUnfold:
    def test_self_loop_depth3_is_unary_chain(self):
        t = unfold(Apg((fs([0]),), 0), 3)
        assert t.paths == fs({(), (0,), (0, 0), (0, 0, 0)})
        assert all(t.arity[p] == 1 for p in t.paths)

    def test_depth0_single_node(self):
        g = Apg((fs([0, 1]), fs([1])), 0)
        t = unfold(g, 0)
        assert t.paths == fs({()})
        assert t.arity[()] == 2

    def test_two_branch_example(self):
        # x -> x, x -> q, q -> q at depth 2
        g = Apg((fs([0, 1]), fs([1])), 0)
        t = unfold(g, 2)
        level1 = [p for p in t.paths if len(p) == 1]
        assert len(level1) == 2
        arities = sorted(t.arity[p] for p in level1)
        assert arities == [1, 2]
        assert len([p for p in t.paths if len(p) == 2]) == 3

    def test_prefix_coherence(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_apg(rng, 10)
            d = rng.randint(0, 5)
            big = unfold(g, d + 1)
            assert big.restricted(d) == unfold(g, d)


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

    def test_cap(self):
        g = Apg((fs([0]),), 0)
        with pytest.raises(SizeLimitExceeded):
            pointed_isomorphic(g, g, cap=0)

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

    def test_projection_satisfies_decoration_equation(self):
        rng = random.Random(31)
        from hypersets.equivalence import max_bisimulation

        for _ in range(100):
            g = random_apg(rng, 10)
            p = max_bisimulation(g)
            q, proj = quotient(g, p)
            for u in range(g.node_count):
                assert fs(proj[v] for v in g.children[u]) == q.children[proj[u]]


class TestValidationAndJson:
    def test_rejects_unreachable(self):
        with pytest.raises(ValueError):
            Apg((fs(), fs()), 0)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Apg((fs([2]),), 0)

    def test_json_round_trip(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_apg(rng, 10)
            g2 = apg_from_json(json.loads(json.dumps(apg_to_json(g))))
            assert g2.children == g.children and g2.root == g.root

    def test_json_rejects_duplicate_edges(self):
        data = {"nodes": ["a", "b"], "edges": [["a", "b"], ["a", "b"]], "root": "a"}
        with pytest.raises(ValueError):
            apg_from_json(data)

    @pytest.mark.parametrize("data, message", [
        pytest.param({"nodes": ["a"], "edges": [], "root": "a", "labels": {"9": "x"}},
                     "KeyError\\('9'\\)", id="label-on-unknown-node"),
        pytest.param({"nodes": ["a"], "edges": [], "root": "a", "labels": {"a": 1}},
                     "must be strings", id="label-not-string"),
        pytest.param({"nodes": ["a"], "edges": [["a", "b"]], "root": "a"}, "unknown node",
                     id="edge-to-unknown"),
        pytest.param({"nodes": ["a"], "edges": [["b", "a"]], "root": "a"}, "unknown node",
                     id="edge-from-unknown"),
        pytest.param({"nodes": ["a", "a"], "edges": [], "root": "a"}, "duplicate node ids",
                     id="duplicate-node"),
        pytest.param({"nodes": ["a"], "edges": [], "root": "b"}, "unknown root", id="unknown-root"),
        pytest.param({"nodes": ["a", "b"], "edges": [], "root": "a"}, "unreachable",
                     id="unreachable-node"),
        pytest.param({"nodes": ["a"], "edges": [["a", "a", "a"]], "root": "a"}, "unpack",
                     id="edge-not-pair"),
        pytest.param({"nodes": ["a"], "edges": []}, "malformed graph", id="no-root"),
        pytest.param({"nodes": [["a"]], "edges": [], "root": "a"}, "malformed graph",
                     id="unhashable-node"),
        pytest.param({"nodes": ["a"], "edges": [[["a"], "a"]], "root": "a"}, "malformed graph",
                     id="unhashable-edge-end"),
        pytest.param({"nodes": ["a"], "edges": 5, "root": "a"}, "malformed graph",
                     id="edges-not-list"),
        pytest.param("graph", "malformed graph", id="not-an-object"),
    ])
    def test_json_rejects_malformed(self, data, message):
        with pytest.raises(ValueError, match=message):
            apg_from_json(data)

    def test_json_labels_survive(self):
        g = Apg((fs([0]),), 0, {0: "atom"})
        assert apg_from_json(apg_to_json(g)).labels == {0: "atom"}
