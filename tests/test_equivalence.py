import random
import time

import pytest

from hypersets.apg import (
    Apg,
    Partition,
    _refine,
    pointed_isomorphic,
    quotient,
    trim_to_accessible,
)
from hypersets.equivalence import (
    _finsler_classes,
    counting_partition,
    finsler_partition,
    max_bisimulation,
)
from hypersets.errors import SizeLimitExceeded
from hypersets.random_graphs import random_apg, random_well_founded_apg

from oracles import (
    brute_force_pointed_iso,
    mostowski_collapse,
    naive_bisimulation,
    naive_counting_partition,
    naive_finsler_partition,
    naive_stable_colors,
)

fs = frozenset

OMEGA = Apg((fs([0]),), 0)
XQ = Apg((fs([0, 1]), fs([1])), 0)  # x -> x, x -> q, q -> q


class TestMaxBisimulation:
    def test_self_loop_one_class(self):
        assert max_bisimulation(OMEGA).class_count == 1

    def test_x_and_quine_child_merge(self):
        p = max_bisimulation(XQ)
        assert p.class_count == 1

    def test_childless_nodes_share_class(self):
        g = Apg((fs([1, 2]), fs(), fs()), 0)
        p = max_bisimulation(g)
        assert p.same_class(1, 2) and not p.same_class(0, 1)

    def test_agrees_with_naive_fixpoint(self):
        rng = random.Random(2024)
        for _ in range(400):
            g = random_apg(rng, 12)
            assert max_bisimulation(g) == naive_bisimulation(g)

    def test_quotient_is_strongly_extensional(self):
        # re-running refinement on the quotient yields the discrete partition
        rng = random.Random(6)
        for _ in range(200):
            g = random_apg(rng, 12)
            q, _ = quotient(g, max_bisimulation(g))
            assert max_bisimulation(q).is_discrete


class TestCountingPartition:
    def test_three_cycle_single_class(self):
        g = Apg((fs([1]), fs([2]), fs([0])), 0)
        assert counting_partition(g).class_count == 1

    def test_counts_split_x_from_quine(self):
        p = counting_partition(XQ)
        assert p.class_count == 2
        assert not p.same_class(0, 1)

    def test_self_loop(self):
        assert counting_partition(OMEGA).class_count == 1

    def test_same_class_means_equal_counts(self):
        from collections import Counter

        rng = random.Random(8)
        for _ in range(200):
            g = random_apg(rng, 12)
            p = counting_partition(g)
            sig = [
                tuple(sorted(Counter(p.class_of[v] for v in g.children[u]).items()))
                for u in range(g.node_count)
            ]
            for u in range(g.node_count):
                for v in range(g.node_count):
                    if p.same_class(u, v):
                        assert sig[u] == sig[v]


def refinement_shapes(rng: random.Random, count: int):
    """Seeded graphs for the refinement engine.  Two in six are random
    graphs; the rest are shapes whose big blocks lose members many times,
    each with up to three random edges added and its ids shuffled: a root
    over a graph and a relabelled copy, crowns (a root over a ring), blocks
    of Quine atoms under one root, and rings of rings."""
    for i in range(count):
        kind = i % 6
        if kind < 2:
            yield (random_apg if kind else random_well_founded_apg)(rng, 14)
            continue
        if kind == 2:
            h = random_apg(rng, 10)
            k = h.node_count
            perm = rng.sample(range(k), k)
            kids = {0: [1 + h.root, 1 + k + perm[h.root]]}
            for u, vs in enumerate(h.children):
                kids[1 + u] = [1 + v for v in vs]
                kids[1 + k + perm[u]] = [1 + k + perm[v] for v in vs]
        elif kind == 3:
            k = rng.randint(2, 20)
            kids = {0: list(range(1, k + 1))}
            kids.update({u: [u % k + 1] for u in range(1, k + 1)})
        elif kind == 4:
            k, m = rng.randint(1, 4), rng.randint(1, 5)
            kids = {0: list(range(1, k + 1))}
            for b in range(k):
                atoms = range(1 + k + b * m, 1 + k + (b + 1) * m)
                kids[1 + b] = list(atoms)
                kids.update({a: [a] for a in atoms})
        else:
            k, m = rng.randint(1, 5), rng.randint(1, 4)
            kids = {0: list(range(1, k + 1))}
            for b in range(k):
                ring = [1 + k + b * m + j for j in range(m)]
                kids[1 + b] = [(b + 1) % k + 1, ring[0]]
                kids.update({v: [ring[(j + 1) % m]] for j, v in enumerate(ring)})
        n = len(kids)
        for _ in range(rng.randint(0, 3)):
            kids[rng.randrange(n)].append(rng.randrange(n))
        perm = rng.sample(range(n), n)
        children = [fs()] * n
        for u, vs in kids.items():
            children[perm[u]] = fs(perm[v] for v in vs)
        yield Apg(tuple(children), perm[0])


class TestRefinementEngine:
    def test_matches_signature_oracles(self):
        # Every rule the package calls: AFA, counting, and counting with
        # parents from a root-marked and from an all-zero colouring.
        for g in refinement_shapes(random.Random(2026), 3000):
            ch, n = g.children, g.node_count
            assert Partition.from_class_of(_refine(ch)) == naive_bisimulation(g)
            assert Partition.from_class_of(_refine(ch, counting=True)) == naive_counting_partition(g)
            root_marked = [0] * n
            root_marked[g.root] = 1
            for init in (root_marked, [0] * n):
                assert Partition.from_class_of(
                    _refine(ch, init, counting=True, parents_too=True)
                ) == Partition.from_class_of(naive_stable_colors(ch, init))

    def test_chain_is_not_quadratic(self):
        # A chain needs one signature round per level; the worklist does not.
        n = 5000
        g = Apg(tuple(fs([u + 1]) if u + 1 < n else fs() for u in range(n)), 0)
        start = time.perf_counter()
        p = counting_partition(g)
        assert time.perf_counter() - start < 2.0
        assert p.is_discrete


class TestFinslerPartition:
    def test_two_cycle_one_class(self):
        g = Apg((fs([1]), fs([0])), 0)
        assert finsler_partition(g).class_count == 1

    def test_sub_apg_sizes_split(self):
        p = finsler_partition(XQ)
        assert not p.same_class(0, 1)

    def test_childless_nodes_merge(self):
        g = Apg((fs([1, 2]), fs(), fs()), 0)
        p = finsler_partition(g)
        assert p.same_class(1, 2)

    def test_matches_naive_oracle(self):
        # The oracle trims every node and compares by brute force; the
        # library trims only nodes that share their counting class.  The
        # ids must be dense: the settle loop reads max(ids) + 1 as the
        # class count.
        rng = random.Random(103)
        discrete = one_class = 0
        for i in range(600):
            if i % 3 == 0:  # one child each: one counting class
                n = rng.randint(1, 7)
                g, _ = trim_to_accessible({u: [rng.randrange(n)] for u in range(n)}, 0)
            elif i % 3 == 1:
                g = random_well_founded_apg(rng, 7)
            else:
                g = random_apg(rng, 7)
            cnt = counting_partition(g)
            discrete += cnt.is_discrete
            one_class += cnt.class_count == 1 and g.node_count > 1
            assert finsler_partition(g) == naive_finsler_partition(g), g
            ids = _finsler_classes(g.children, g.node_count)
            assert set(ids) == set(range(max(ids) + 1)), g
        assert discrete >= 100 and one_class >= 100

    def test_matches_naive_oracle_where_one_map_settles_many_pairs(self):
        # A map found for one node unites every node below it with its
        # image; these shapes have large classes that such maps settle.
        # Brute force decides the small sub-APGs, the library's search the
        # rest, so the oracle still compares every node with every class.
        def same(g1, g2):
            if max(g1.node_count, g2.node_count) <= 7:
                return brute_force_pointed_iso(g1, g2)
            return pointed_isomorphic(g1, g2) is not None

        def copies(h, perms):
            """Copies of h, renumbered by each permutation, under one root."""
            k = h.node_count
            kids = [fs(1 + i * k + p[h.root] for i, p in enumerate(perms))]
            for i, p in enumerate(perms):
                inv = {p[u]: u for u in range(k)}
                kids += [fs(1 + i * k + p[v] for v in h.children[inv[w]]) for w in range(k)]
            return Apg(tuple(kids), 0)

        rng = random.Random(107)
        graphs = []
        for n in range(1, 30, 4):
            graphs.append(Apg(tuple(fs([(i + 1) % n]) for i in range(n)), 0))  # ring
            crown = (fs(range(1, n + 1)), *(fs([i % n + 1]) for i in range(1, n + 1)))
            graphs.append(Apg(crown, 0))
        for _ in range(60):
            h = random_apg(rng, 6)
            perms = [rng.sample(range(h.node_count), h.node_count) for _ in range(2)]
            graphs.append(copies(h, perms))
        squares = {x * x % 13 for x in range(1, 13)}
        paley = [fs(range(1, 14))]
        paley += [fs(1 + j for j in range(13) if (j - i) % 13 in squares) for i in range(13)]
        graphs.append(Apg(tuple(paley), 0))
        merged = 0
        for g in graphs:
            p = finsler_partition(g)
            merged += g.node_count - p.class_count
            assert p == naive_finsler_partition(g, same), g
            ids = _finsler_classes(g.children, g.node_count)
            assert set(ids) == set(range(p.class_count)), g
        assert finsler_partition(graphs[-1]).class_count == 2  # Paley(13) is vertex-transitive
        assert merged >= 300

    def test_cap(self):
        g = Apg(tuple(fs([u + 1]) for u in range(9)) + (fs(),), 0)
        with pytest.raises(SizeLimitExceeded):
            finsler_partition(g, cap=9)
        assert finsler_partition(g, cap=10).is_discrete


class TestRefinementChain:
    def test_finsler_refines_counting_refines_bisim(self):
        rng = random.Random(99)
        for _ in range(1000):
            g = random_apg(rng, 12)
            fin = finsler_partition(g)
            cnt = counting_partition(g)
            bis = max_bisimulation(g)
            for u in range(g.node_count):
                for v in range(g.node_count):
                    if fin.same_class(u, v):
                        assert cnt.same_class(u, v)
                    if cnt.same_class(u, v):
                        assert bis.same_class(u, v)

    def test_well_founded_bisim_is_the_mostowski_partition(self):
        # Bisimilarity on a well-founded graph groups nodes by hereditary
        # set value; its quotient is the Mostowski collapse.  Counting and
        # Finsler may properly refine it when a node carries duplicate
        # representations of one member; they agree after canonicalization
        # (see test_canon and the acceptance suite).
        from hypersets.apg import rank_map

        rng = random.Random(101)
        for _ in range(300):
            g = random_well_founded_apg(rng, 12)
            bis = max_bisimulation(g)
            ranks = rank_map(g)
            value: dict[int, frozenset] = {}
            for u in sorted(range(g.node_count), key=lambda u: ranks[u]):
                value[u] = fs(value[v] for v in g.children[u])
            for u in range(g.node_count):
                for v in range(g.node_count):
                    assert bis.same_class(u, v) == (value[u] == value[v])
            q, _ = quotient(g, bis)
            assert pointed_isomorphic(q, mostowski_collapse(g)) is not None

    def test_well_founded_duplicate_free_all_coincide(self):
        # On graphs where no node has two children of equal value, the
        # three partitions genuinely coincide.
        rng = random.Random(102)
        checked = 0
        while checked < 200:
            g = random_well_founded_apg(rng, 12)
            bis = max_bisimulation(g)
            if any(
                len({bis.class_of[v] for v in g.children[u]}) != len(g.children[u])
                for u in range(g.node_count)
            ):
                continue
            assert bis == counting_partition(g) == finsler_partition(g)
            checked += 1
