import math
import random
import sys
import time

import pytest

from hypersets import canon
from hypersets.apg import Apg, DEFAULT_ISO_CAP, _refine, pointed_isomorphic, quotient, trim_to_accessible
from hypersets.canon import (
    Semantics,
    _automorphism_search,
    automorphisms,
    canonicalize,
    equal,
    equality_classes,
    is_canonical_picture,
    is_rigid,
    solve,
    to_dot,
)
from hypersets.equivalence import counting_partition, finsler_partition, max_bisimulation
from hypersets.boffa import Universe
from hypersets.errors import SizeLimitExceeded
from hypersets.grouplab import PRESET_NAMES, build_A_G, preset_group
from hypersets.hsl import flatten_into, parse
from hypersets.wflab import all_automorphisms, build_universe
from hypersets.random_graphs import random_apg, random_performance_graph

from oracles import (
    afa_equal_via_union,
    assert_irredundant_generators,
    brute_force_automorphism_count,
    brute_force_automorphisms,
    equal_by_canonical_forms,
    exhaustive_automorphisms,
    reference_canonicalize,
    reference_equality_classes,
    reference_is_canonical_picture,
    safa_equal_by_unfolding,
)
from test_solve import paley_program

fs = frozenset

OMEGA = Apg((fs([0]),), 0)
TWO_CYCLE = Apg((fs([1]), fs([0])), 0)
XQ = Apg((fs([0, 1]), fs([1])), 0)
VN2 = Apg((fs([1, 2]), fs([2]), fs()), 0)
DOUBLETON_OF_LOOPS = Apg((fs([1, 2]), fs([1]), fs([2])), 0)
# r -> {a, c1}, a <-> b a 2-cycle, c1 -> c2 -> c3 -> c4 -> c1 a 4-cycle
LOOPS_2_AND_4 = Apg((fs([1, 3]), fs([2]), fs([1]), fs([4]), fs([5]), fs([6]), fs([3])), 0)

ALL_MODES = list(Semantics)
PARTITION_OF = {
    Semantics.AFA: max_bisimulation,
    Semantics.SAFA: counting_partition,
    Semantics.FAFA: finsler_partition,
}


def merges_no_edges(g: Apg, p) -> bool:
    """No node of g has two children in one class of p."""
    return all(len({p.class_of[v] for v in kids}) == len(kids) for kids in g.children)


class TestCanonicalize:
    def test_self_loop_fixed_in_every_mode(self):
        for s in ALL_MODES:
            c = canonicalize(OMEGA, s)
            assert c.canonical.node_count == 1
            assert c.canonical.children[0] == fs([0])

    def test_three_cycle_collapses_under_safa(self):
        g = Apg((fs([1]), fs([2]), fs([0])), 0)
        c = canonicalize(g, Semantics.SAFA)
        assert c.canonical.node_count == 1

    def test_iterated_merging_example(self):
        # t -> {p, q}, p -> q, q -> q needs two passes under SAFA
        g = Apg((fs([1, 2]), fs([2]), fs([2])), 0)
        c = canonicalize(g, Semantics.SAFA)
        assert c.canonical.node_count == 1
        assert c.decoration == (0, 0, 0)

    def test_idempotent_all_modes(self):
        rng = random.Random(55)
        for _ in range(500):
            g = random_apg(rng, 12)
            for s in ALL_MODES:
                c = canonicalize(g, s).canonical
                again = canonicalize(c, s).canonical
                assert pointed_isomorphic(c, again) is not None

    def test_decoration_equation_exact(self):
        rng = random.Random(56)
        for _ in range(500):
            g = random_apg(rng, 12)
            for s in ALL_MODES:
                r = canonicalize(g, s)
                for u in range(g.node_count):
                    image = fs(r.decoration[v] for v in g.children[u])
                    assert image == r.canonical.children[r.decoration[u]]

    def test_no_further_merging(self):
        rng = random.Random(57)
        for _ in range(100):
            g = random_apg(rng, 10)
            for s in ALL_MODES:
                c = canonicalize(g, s).canonical
                assert PARTITION_OF[s](c).is_discrete


class TestEqual:
    def test_quine_atom_unique_everywhere(self):
        for s in ALL_MODES:
            assert equal(OMEGA, TWO_CYCLE, s)

    def test_x_omega_separation(self):
        assert equal(XQ, OMEGA, Semantics.AFA)
        assert not equal(XQ, OMEGA, Semantics.SAFA)
        assert not equal(XQ, OMEGA, Semantics.FAFA)

    def test_numeral_two_literal(self):
        lit = Apg((fs([1, 2]), fs([2]), fs()), 0)
        for s in ALL_MODES:
            assert equal(VN2, lit, s)

    def test_mode_comparability(self):
        rng = random.Random(58)
        for _ in range(1000):
            g1 = random_apg(rng, 10)
            g2 = random_apg(rng, 10)
            if equal(g1, g2, Semantics.FAFA):
                assert equal(g1, g2, Semantics.SAFA)
            if equal(g1, g2, Semantics.SAFA):
                assert equal(g1, g2, Semantics.AFA)

    def test_safa_against_unfolding_oracle(self):
        rng = random.Random(59)
        for _ in range(200):
            g1 = random_apg(rng, 10)
            g2 = random_apg(rng, 10)
            assert equal(g1, g2, Semantics.SAFA) == safa_equal_by_unfolding(g1, g2)

    def test_afa_shortcut_agreement(self):
        rng = random.Random(60)
        for _ in range(1000):
            g1 = random_apg(rng, 10)
            g2 = random_apg(rng, 10)
            assert equal(g1, g2, Semantics.AFA) == afa_equal_via_union(g1, g2)


def relabelled(rng: random.Random, g: Apg) -> Apg:
    """g with its node ids shuffled."""
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    children = [fs()] * g.node_count
    for u, kids in enumerate(g.children):
        children[perm[u]] = fs(perm[v] for v in kids)
    return Apg(tuple(children), perm[g.root])


def disjoint_union(graphs) -> tuple[list[frozenset[int]], list[int]]:
    """The graphs' child sets side by side, and their roots' ids there."""
    children: list[frozenset[int]] = []
    roots = []
    for g in graphs:
        offset = len(children)
        roots.append(g.root + offset)
        children += [fs(v + offset for v in kids) for kids in g.children]
    return children, roots


def crown(n: int) -> Apg:
    """A root over the n-ring a_i -> a_(i+1 mod n); its group is Z_n."""
    return Apg((fs(range(1, n + 1)), *(fs([(i + 1) % n + 1]) for i in range(n))), 0)


def ring_of_rings(k: int, m: int) -> Apg:
    """A root over a k-ring whose nodes also point to an m-ring each; its
    group is Z_m wr Z_k, of order k m^k."""
    inner = [[1 + k + i * m + j for j in range(m)] for i in range(k)]
    kids = [fs(range(1, k + 1))]
    kids += [fs([(i + 1) % k + 1, *inner[i]]) for i in range(k)]
    kids += [fs([ring[(j + 1) % m]]) for ring in inner for j in range(m)]
    return Apg(tuple(kids), 0)


def atom_blocks(k: int, m: int) -> Apg:
    """A root over k blocks of m Quine atoms; its group is S_m wr S_k."""
    kids = [fs(range(1, k + 1))]
    kids += [fs(range(1 + k + i * m, 1 + k + (i + 1) * m)) for i in range(k)]
    kids += [fs([v]) for v in range(1 + k, 1 + k + k * m)]
    return Apg(tuple(kids), 0)


def copies_under_root(h: Apg, c: int) -> Apg:
    """c disjoint copies of h below a fresh root 0."""
    k = h.node_count
    kids = [fs(1 + i * k + h.root for i in range(c))]
    for i in range(c):
        kids += [fs(1 + i * k + v for v in vs) for vs in h.children]
    return Apg(tuple(kids), 0)


class TestEqualityClasses:
    def test_matches_canonical_forms_reference(self):
        rng = random.Random(65)
        for _ in range(1000):
            g1 = random_apg(rng, 7)
            g2 = random_apg(rng, 7)
            for s in ALL_MODES:
                assert equal(g1, g2, s) == equal_by_canonical_forms(g1, g2, s), (s, g1, g2)
            assert equal(g1, g2, Semantics.AFA) == afa_equal_via_union(g1, g2)

    def test_classes_agree_with_pairwise_equal(self):
        rng = random.Random(66)
        for _ in range(100):
            graphs = [random_apg(rng, 5) for _ in range(6)]
            for s in ALL_MODES:
                classes = equality_classes(graphs, s)
                assert classes[0] == 0 and max(classes) < len(set(classes))
                for i, g in enumerate(graphs):
                    for j, h in enumerate(graphs):
                        want = equal_by_canonical_forms(g, h, s)
                        assert (classes[i] == classes[j]) == want

    def test_empty_and_single(self):
        for s in ALL_MODES:
            assert equality_classes([], s) == []
            assert equality_classes([XQ], s) == [0]

    def test_beyond_isomorphism_cap(self):
        # Pairwise comparison of canonical forms raised SizeLimitExceeded
        # here; the joint pass needs no isomorphism search.
        rng = random.Random(67)
        g = random_performance_graph(rng, 2000, 6000)
        copy = relabelled(rng, g)
        for s in (Semantics.AFA, Semantics.SAFA):
            assert canonicalize(g, s).canonical.node_count > DEFAULT_ISO_CAP
            assert equal(g, copy, s)
        with pytest.raises(SizeLimitExceeded):
            equal(g, copy, Semantics.FAFA)


class TestCanonicity:
    def test_omega_canonical_everywhere(self):
        for s in ALL_MODES:
            ok, witness = is_canonical_picture(OMEGA, s)
            assert ok and witness is None

    def test_xq_mode_dependent(self):
        ok, witness = is_canonical_picture(XQ, Semantics.AFA)
        assert not ok and set(witness) == {0, 1}
        assert is_canonical_picture(XQ, Semantics.SAFA)[0]
        assert is_canonical_picture(XQ, Semantics.FAFA)[0]

    def test_two_loops_not_safa_canonical(self):
        ok, witness = is_canonical_picture(DOUBLETON_OF_LOOPS, Semantics.SAFA)
        assert not ok and set(witness) == {1, 2}

    def test_fafa_requires_plain_extensionality(self):
        # u -> w, v -> w, w -> u: u, v have identical child sets but
        # non-isomorphic sub-APGs
        g = Apg((fs([1, 2]), fs([3]), fs([3]), fs([1])), 0)
        fin = finsler_partition(g)
        assert not fin.same_class(1, 2)
        ok, witness = is_canonical_picture(g, Semantics.FAFA)
        assert not ok and set(witness) == {1, 2}


class TestSettleAgainstReference:
    """The settle loop on bare child sets against the loop it replaced,
    which builds an Apg and a Partition every round and always runs the
    round that finds the partition discrete (oracles.reference_*)."""

    def test_canonical_forms_and_canonicity(self):
        rng = random.Random(72)
        multi_round = {s: 0 for s in ALL_MODES}
        rooted_elsewhere = duplicate_child_sets = 0
        fixed = [LOOPS_2_AND_4, DOUBLETON_OF_LOOPS, Apg((fs([1, 2]), fs([2]), fs([2])), 0)]
        for g in fixed + [relabelled(rng, random_apg(rng, 12)) for _ in range(1000)]:
            rooted_elsewhere += g.root != 0
            duplicate_child_sets += len(set(g.children)) < g.node_count
            for s in ALL_MODES:
                got = canonicalize(g, s)
                want, decoration = reference_canonicalize(g, s)
                assert got.canonical == want and got.decoration == decoration, (s, g)
                assert is_canonical_picture(g, s) == reference_is_canonical_picture(g, s)
                q, _ = quotient(g, PARTITION_OF[s](g))
                multi_round[s] += not PARTITION_OF[s](q).is_discrete
        assert rooted_elsewhere >= 300 and duplicate_child_sets >= 150
        assert multi_round[Semantics.AFA] == 0
        assert multi_round[Semantics.SAFA] >= 10 and multi_round[Semantics.FAFA] >= 5

    def test_equality_classes_on_triples(self):
        rng = random.Random(73)
        triples = [[LOOPS_2_AND_4, OMEGA, DOUBLETON_OF_LOOPS]]
        for i in range(1000):
            g = relabelled(rng, random_apg(rng, 8))
            h = relabelled(rng, random_apg(rng, 8))
            k = relabelled(rng, g) if i % 2 else relabelled(rng, random_apg(rng, 8))
            triples.append([g, h, k])
        for graphs in triples:
            for s in ALL_MODES:
                want = reference_equality_classes(graphs, s)
                assert equality_classes(graphs, s) == want, (s, graphs)
            # The joint FAFA settle, which FAFA equality_classes does not take
            children, roots = disjoint_union(graphs)
            want = reference_equality_classes(graphs, Semantics.FAFA)
            for pictures in (False, True):
                assert solve(children, roots, Semantics.FAFA, pictures=pictures)[0] == want


class TestEqualityBuildsOnlyItsVerdict:
    """``equal`` settles bare child sets and compares them; it builds no
    canonical form, and SAFA stops as soon as the roots share a block."""

    def test_verdicts_match_reference(self):
        rng = random.Random(75)
        pairs = []
        for i in range(3000):
            g = relabelled(rng, random_apg(rng, 6))
            h = relabelled(rng, g) if i % 3 == 0 else relabelled(rng, random_apg(rng, 6))
            pairs.append([g, h])
        groups = [[relabelled(rng, random_apg(rng, 5)) for _ in range(rng.randint(3, 7))]
                  for _ in range(200)]
        for graphs in groups:  # relabelled copies among the k graphs too
            graphs.append(relabelled(rng, rng.choice(graphs)))
        copies = {s: 0 for s in ALL_MODES}
        for graphs in pairs + groups:
            for s in ALL_MODES:
                want = reference_equality_classes(graphs, s)
                if len(graphs) == 2:
                    assert equal(*graphs, s) == (want[0] == want[1]), (s, graphs)
                    copies[s] += want[0] == want[1]
                else:
                    assert equality_classes(graphs, s) == want, (s, graphs)
        assert min(copies.values()) >= 1000

    @pytest.mark.parametrize("s", ALL_MODES)
    def test_equal_builds_no_apg(self, monkeypatch, s):
        rng = random.Random(76)
        pairs = [(LOOPS_2_AND_4, OMEGA), (DOUBLETON_OF_LOOPS, relabelled(rng, DOUBLETON_OF_LOOPS))]
        pairs += [(g, relabelled(rng, g)) for g in (random_apg(rng, 12) for _ in range(50))]
        pairs += [(random_apg(rng, 12), random_apg(rng, 12)) for _ in range(50)]
        built = []
        post_init = Apg.__post_init__
        monkeypatch.setattr(Apg, "__post_init__", lambda g: built.append(post_init(g)))
        Apg((fs(),), 0)
        assert len(built) == 1  # the count sees every Apg made
        for g, h in pairs:
            equal(g, h, s)
        assert len(built) == 1

    def test_fafa_equal_canonicalizes_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(canon, "canonicalize", lambda *a, **k: calls.append(a))
        rng = random.Random(77)
        for _ in range(100):
            g = random_apg(rng, 8)
            assert equal(g, relabelled(rng, g), Semantics.FAFA)
            equal(g, random_apg(rng, 8), Semantics.FAFA)
        assert calls == []

    def test_safa_equal_on_a_copy_refines_once(self, monkeypatch):
        rng = random.Random(78)
        graphs = [LOOPS_2_AND_4, DOUBLETON_OF_LOOPS] + [random_apg(rng, 12) for _ in range(100)]
        refine = canon._refine
        calls = []
        monkeypatch.setattr(canon, "_refine", lambda *a, **k: calls.append(a) or refine(*a, **k))
        for g in graphs:
            copy = relabelled(rng, g)
            calls.clear()
            assert equal(g, copy, Semantics.SAFA)
            assert len(calls) == 1
            children, roots = disjoint_union([g, copy])
            calls.clear()
            assert solve(children, roots, Semantics.SAFA) == ([0, 0], None, None)
            assert len(calls) == 1
            # With pictures the settle does not stop at the roots: the fresh
            # root's two children in one block take it into a second round.
            calls.clear()
            assert solve(children, roots, Semantics.SAFA, pictures=True)[0] == [0, 0]
            assert len(calls) >= 2

    def test_fafa_cap_bounds_each_graph(self):
        rng = random.Random(79)
        g = random_performance_graph(rng, 40, 120)
        n = g.node_count
        assert canonicalize(g, Semantics.FAFA).canonical.node_count == n
        assert equal(g, relabelled(rng, g), Semantics.FAFA, cap=n)
        with pytest.raises(SizeLimitExceeded):
            equal(g, relabelled(rng, g), Semantics.FAFA, cap=n - 1)
        big = random_performance_graph(rng, 3000, 9000)
        for s in (Semantics.AFA, Semantics.SAFA):
            assert equal(big, relabelled(rng, big), s, cap=1)


class TestSafaEarlyStop:
    def test_fafa_merges_the_loops_only_in_round_two(self):
        fin = finsler_partition(LOOPS_2_AND_4)
        assert merges_no_edges(LOOPS_2_AND_4, fin)
        # So a FAFA loop that stopped once no edges merge would keep r, the
        # 2-cycle and the 4-cycle; round two finds both loops to be Omega.
        assert quotient(LOOPS_2_AND_4, fin)[0].node_count == 3
        assert canonicalize(LOOPS_2_AND_4, Semantics.FAFA).canonical.node_count == 2
        for s in (Semantics.AFA, Semantics.SAFA):
            assert canonicalize(LOOPS_2_AND_4, s).canonical.node_count == 1

    def test_safa_equal_against_unfolding_oracle(self):
        rng = random.Random(74)
        stops_in_round_one = 0
        for i in range(300):
            g1 = relabelled(rng, random_apg(rng, 10))
            g2 = relabelled(rng, g1) if i % 3 == 0 else relabelled(rng, random_apg(rng, 10))
            for g in (g1, g2):
                p = counting_partition(g)
                stops_in_round_one += not p.is_discrete and merges_no_edges(g, p)
            assert equal(g1, g2, Semantics.SAFA) == safa_equal_by_unfolding(g1, g2), (g1, g2)
        assert stops_in_round_one >= 30


class TestAutomorphisms:
    def test_collapsed_wf_graph_rigid(self):
        vn3 = Apg((fs([1, 2, 3]), fs([2, 3]), fs([3]), fs()), 0)
        assert automorphisms(vn3).order == 1
        assert is_rigid(vn3)

    def test_two_quine_atoms_swap(self):
        group = automorphisms(DOUBLETON_OF_LOOPS)
        assert group.order == 2
        assert len(group.generators) == 1
        assert not is_rigid(DOUBLETON_OF_LOOPS)

    def test_three_cycle_rigid_root_fixed(self):
        g = Apg((fs([1]), fs([2]), fs([0])), 0)
        assert automorphisms(g).order == 1

    def test_matches_brute_force(self):
        rng = random.Random(61)
        for _ in range(200):
            g = random_apg(rng, 7)
            assert automorphisms(g).order == brute_force_automorphism_count(g)

    def test_small_graphs_match_brute_force_elements(self):
        # random_apg rarely draws symmetric graphs, so half the graphs hang
        # copies of one small graph under a fresh root.
        rng = random.Random(68)
        for i in range(400):
            if i % 2:
                g = random_apg(rng, 8)
            else:
                part = random_apg(rng, 3)
                children = [set()]
                for _ in range(rng.randint(2, 7 // part.node_count)):
                    offset = len(children)
                    children[0].add(part.root + offset)
                    children.extend({v + offset for v in kids} for kids in part.children)
                g = Apg(tuple(fs(kids) for kids in children), 0)
            want = brute_force_automorphisms(g)
            assert automorphisms(g).elements == tuple(want), g.children
            assert is_rigid(g) == (len(want) == 1)

    def test_backtracking_path_matches_brute_force(self):
        # hang a 9-node chain off the root: the padded graph, too large for
        # brute force, has as many automorphisms as the unpadded one
        rng = random.Random(62)
        for _ in range(50):
            g = random_apg(rng, 6)
            n = g.node_count
            chain = 9
            children = {u: sorted(g.children[u]) for u in range(n)}
            children[g.root] = children.get(g.root, []) + [n]
            for i in range(chain):
                children[n + i] = [n + i + 1] if i + 1 < chain else []
            big = Apg(
                tuple(fs(children.get(u, [])) for u in range(n + chain)), g.root
            )
            assert automorphisms(big).order == brute_force_automorphism_count(g)

    def test_copies_under_a_root_give_the_wreath_order(self):
        # c copies of H under one root: Aut is Aut(H) wr S_c, of order
        # c! |Aut(H)|^c, with |Aut(H)| counted by brute force.  Half the
        # H have twin nodes, since random_apg is nearly always rigid.
        rng = random.Random(72)
        for _ in range(400):
            if rng.random() < 0.5:
                h = random_apg(rng, 6)
            else:
                n = rng.randint(2, 6)
                patterns = [rng.sample(range(n), rng.choice((0, 1, 1, 2))) for _ in range(2)]
                children = {u: rng.choice(patterns) for u in range(1, n)}
                children[0] = rng.sample(range(1, n), rng.randint(1, n - 1))
                h, _ = trim_to_accessible(children, 0)
            aut_h = len(brute_force_automorphisms(h))
            c = rng.randint(1, 3)
            k = h.node_count
            kids = [fs(1 + i * k + h.root for i in range(c))]
            for i in range(c):
                kids += [fs(1 + i * k + v for v in vs) for vs in h.children]
            g = Apg(tuple(kids), 0)
            assert automorphisms(g).order == math.factorial(c) * aut_h ** c, h.children

    def test_generators_irredundant_and_complete(self):
        # Circulants (a root over a ring of k nodes, each pointing the same
        # steps ahead) give cyclic and dihedral groups, where a later
        # element can be a power of an earlier one; copies of one small
        # graph under a root give wreath products.
        rng = random.Random(74)
        orders = []
        for i in range(300):
            if i % 2:
                k = rng.randint(1, 7)
                steps = rng.sample(range(k), rng.randint(1, min(k, 2)))
                kids = [fs(range(1, k + 1))]
                kids += [fs((j + d) % k + 1 for d in steps) for j in range(k)]
            else:
                part = random_apg(rng, 3)
                kids = [set()]
                for _ in range(rng.randint(2, min(5, 7 // part.node_count))):
                    offset = len(kids)
                    kids[0].add(part.root + offset)
                    kids.extend({v + offset for v in vs} for vs in part.children)
            g = Apg(tuple(fs(vs) for vs in kids), 0)
            group = automorphisms(g)
            assert_irredundant_generators(group.generators, group.elements, g.node_count)
            orders.append(group.order)
        assert sum(order >= 3 for order in orders) >= 100

    def test_chain_matches_the_exhaustive_listing(self):
        # The stabilizer chain against every leaf of the search, listed and
        # sorted: circulants, copies of one small graph under a root
        # (wreath products), sets of Quine atoms with sets of atoms among
        # their members, every preset's A_G and the WF_k(A) tops up to 16
        # elements.  Orders stay small enough to list: the circulants are
        # connected rings, and the wreath products are bounded by
        # c! |Aut(H)|^c.
        rng = random.Random(75)
        graphs = []
        while len(graphs) < 200:
            k = rng.randint(1, 15)
            steps = rng.sample(range(k), rng.randint(1, min(k, 2)))
            if math.gcd(k, *steps) == 1:
                kids = [fs(range(1, k + 1))] + [fs((j + d) % k + 1 for d in steps) for j in range(k)]
                graphs.append(Apg(tuple(kids), 0))
        while len(graphs) < 360:
            h = random_apg(rng, 5)
            c = rng.randint(2, 15 // h.node_count)
            if c > 3 or math.factorial(c) * brute_force_automorphism_count(h) ** c > 2000:
                continue
            kids = [fs(1 + i * h.node_count + h.root for i in range(c))]
            for i in range(c):
                kids += [fs(1 + i * h.node_count + v for v in vs) for vs in h.children]
            graphs.append(Apg(tuple(kids), 0))
        for _ in range(140):
            u = Universe()
            atoms = [u.add_quine_atom() for _ in range(rng.randint(1, 6))]
            extra = [u.add_set(rng.sample(atoms, rng.randint(0, len(atoms)))) for _ in range(rng.randint(0, 6))]
            graphs.append(u.picture_of(u.add_set(atoms + extra)))
        for name in PRESET_NAMES:
            art = build_A_G(preset_group(name))
            graphs.append(art.universe.picture_of(art.root))
        for k, levels in [(0, 3), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)]:
            w = build_universe(k, levels)
            codes = sorted(w.top)
            node = {c: i + 1 for i, c in enumerate(codes)}
            kids = [fs(node.values())] + [fs(node[m] for m in w.members[c]) for c in codes]
            graphs.append(Apg(tuple(kids), 0))
        assert len(graphs) >= 500
        orders = []
        for g in graphs:
            group = automorphisms(g)
            perms = exhaustive_automorphisms(g)
            assert group.order == len(perms), g.children
            assert group.elements == tuple(perms), g.children
            assert_irredundant_generators(group.generators, group.elements, g.node_count)
            orders.append(group.order)
        assert sum(order >= 6 for order in orders) >= 150

    def test_chain_on_relabelled_symmetric_shapes(self):
        # Shuffled ids put base nodes after other nodes of their colour
        # class, so a depth's node has candidate images on both sides of
        # it.  Wreath products of Quine atoms, two or three copies of a
        # small graph under one root, crowns and rings of rings.
        rng = random.Random(77)
        sizes = [(1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 1)]
        graphs = [atom_blocks(k, m) for k, m in sizes if math.factorial(m) ** k * math.factorial(k) < 2000]
        graphs += [ring_of_rings(k, m) for k, m in sizes]
        graphs += [crown(n) for n in range(1, 16)]
        for _ in range(60):
            graphs.append(copies_under_root(random_apg(rng, rng.randint(1, 4)), rng.randint(2, 3)))
        graphs = [relabelled(rng, g) for g in graphs for _ in range(4)]
        out_of_order = 0
        for g in graphs:
            group = automorphisms(g)
            perms = exhaustive_automorphisms(g)
            assert group.order == len(perms), g.children
            assert group.elements == tuple(perms), g.children
            assert_irredundant_generators(group.generators, group.elements, g.node_count)
            init = [int(u == g.root) for u in range(g.node_count)]
            colors = _refine(g.children, init, counting=True, parents_too=True)
            least = {}
            for u in range(g.node_count):
                least.setdefault(colors[u], u)
            base = _automorphism_search(g, DEFAULT_ISO_CAP)[1]
            out_of_order += any(least[colors[b]] != b for b in base if group.order > 1)
        assert out_of_order >= len(graphs) // 2

    @pytest.mark.parametrize("name", ["crown 64", "crown 256", "crown 510", "12 Quine atoms", "wf 8 atoms"])
    def test_each_leaf_at_least_doubles_the_group(self, monkeypatch, name):
        # Orbit pruning: a leaf comes back only for an image outside the
        # orbit of the leaves found so far, so it at least doubles the group
        # they generate, and leaves - 1 <= log2(order).  Leaves come at
        # non-increasing first-moved depths.  Counted, not timed.
        depths = []
        search = canon._automorphism_search

        def counted(g, cap, orbit=None):
            leaves, base = search(g, cap, orbit)

            def relay():
                depth = None
                while True:
                    try:
                        leaf = leaves.send(depth)
                    except StopIteration:
                        return
                    depths.append(next((d for d, u in enumerate(base) if leaf[u] != u), len(base)))
                    depth = yield leaf

            return relay(), base

        monkeypatch.setattr(canon, "_automorphism_search", counted)
        if name.startswith("crown"):
            n = int(name.split()[1])
            order = automorphisms(relabelled(random.Random(78), crown(n))).order
            assert order == n
        elif name == "12 Quine atoms":
            u = Universe()
            atoms = [u.add_quine_atom() for _ in range(12)]
            order = automorphisms(u.picture_of(u.add_set(atoms))).order
            assert order == math.factorial(12)
        else:
            order = all_automorphisms(build_universe(8, 1)).count
            assert order == math.factorial(8)
        assert len(depths) - 1 <= math.log2(order), depths
        assert depths == sorted(depths, reverse=True), depths

    def test_is_rigid_consistent_with_order(self):
        rng = random.Random(63)
        for _ in range(150):
            g = random_apg(rng, 8)
            assert is_rigid(g) == (automorphisms(g).order == 1)

    def test_long_chain_refines_in_time(self):
        # Root-marked colour refinement splits a chain level by level.
        n = 5000
        g = Apg(tuple(fs([u + 1]) if u + 1 < n else fs() for u in range(n)), 0)
        start = time.perf_counter()
        assert automorphisms(g, cap=n).order == 1
        assert time.perf_counter() - start < 2.0

    def test_rigidity_of_canonical_forms(self):
        rng = random.Random(64)
        for _ in range(100):
            g = random_apg(rng, 12)
            for s in ALL_MODES:
                c = canonicalize(g, s).canonical
                assert automorphisms(c).order == 1, (s, g.children)

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            automorphisms(OMEGA, cap=0)

    def test_search_deeper_than_recursion_limit(self):
        # The search maps one node per level; it must not recurse per level.
        rng = random.Random(71)
        n = sys.getrecursionlimit() + 500
        g = random_performance_graph(rng, n, 3 * n)
        assert pointed_isomorphic(g, relabelled(rng, g), cap=n) is not None
        assert automorphisms(g, cap=n).order == 1
        assert is_rigid(g, cap=n)

    @pytest.mark.parametrize("q", [13, 29, 53])
    def test_paley_graph_that_refinement_cannot_split(self, q):
        # The Paley graph is strongly regular: colour refinement leaves its
        # q vertices in one class, and the search alone finds the group of
        # the maps x -> a x + b with a a nonzero square, of order q(q-1)/2.
        u = Universe()
        g = u.picture_of(flatten_into(parse(paley_program(q)), u)["r"])
        init = [int(v == g.root) for v in range(g.node_count)]
        assert len(set(_refine(g.children, init, counting=True, parents_too=True))) == 2
        assert automorphisms(g).order == q * (q - 1) // 2
        assert not is_rigid(g)


class TestDot:
    def test_root_doubled_and_edges_listed(self):
        text = to_dot(DOUBLETON_OF_LOOPS, name="pair")
        assert "digraph pair" in text
        assert "peripheries=2" in text
        assert "n0 -> n1;" in text

    @pytest.mark.parametrize("name", ["graph", "Node", "EDGE", "digraph", "subGraph", "strict"])
    def test_keyword_names_are_quoted(self, name):
        # DOT reserves these words in any case; unquoted, the file does not parse.
        assert to_dot(DOUBLETON_OF_LOOPS, name=name).startswith(f'digraph "{name}" {{\n')

    @pytest.mark.parametrize("name", ["graphs", "nodes", "x0", "A_G", "Strict_"])
    def test_other_names_are_bare(self, name):
        assert to_dot(DOUBLETON_OF_LOOPS, name=name).startswith(f"digraph {name} {{\n")
