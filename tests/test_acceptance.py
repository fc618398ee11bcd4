"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Counts, seeds and time limits are pinned here; every tolerance is exact
(zero mismatches) except the wall-clock budgets, which are generous on
commodity hardware.
"""

import pathlib
import random
import time

from hypersets.apg import Apg, pointed_isomorphic
from hypersets.boffa import Universe
from hypersets.canon import Semantics, automorphisms, canonicalize, equal
from hypersets.equivalence import max_bisimulation
from hypersets.grouplab import aut_group_of, build_A_G, groups_isomorphic, preset_group
from hypersets.hsl import flatten, flatten_into, parse, unparse
from hypersets.random_graphs import (
    random_apg,
    random_performance_graph,
    random_well_founded_apg,
)
from hypersets.wflab import all_automorphisms, build_universe, classify_map, extend_map

from oracles import (
    check_membership_iso,
    mostowski_collapse,
    naive_bisimulation,
    safa_equal_by_unfolding,
)

fs = frozenset
DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

OMEGA = Apg((fs([0]),), 0)
TWO_CYCLE = Apg((fs([1]), fs([0])), 0)
XQ = Apg((fs([0, 1]), fs([1])), 0)  # x = {omega, x}


def test_criterion_1_prescribed_automorphism_groups():
    for name in ("z1", "z2", "z3", "z4", "v4", "s3"):
        group = preset_group(name)
        start = time.perf_counter()
        art = build_A_G(group)
        report = aut_group_of(art)
        elapsed = time.perf_counter() - start
        assert report.automorphism_count == group.order, name
        assert groups_isomorphic(report.table, group), name
        assert elapsed < 10.0, (name, elapsed)
    print("PASS criterion 1: Aut(A_G) = G exactly for Z1,Z2,Z3,Z4,V4,S3")


def test_criterion_2_atom_permutations_generate_all_automorphisms():
    start = time.perf_counter()
    import itertools

    for n in (1, 2, 3):
        u = build_universe(n, 2)
        found = all_automorphisms(u)
        expected = 1
        for i in range(2, n + 1):
            expected *= i
        assert found.count == expected, (n, found.count)
        # uniqueness: each automorphism is the extension of its atom map
        for perm in found.elements:
            sigma = {a: perm[a] for a in u.atoms}
            assert extend_map(u, sigma).full_map == perm
        # functoriality: composition table matches the symmetric group
        perms = list(itertools.permutations(range(n)))
        ext = {p: extend_map(u, {i: p[i] for i in range(n)}).full_map for p in perms}
        for p in perms:
            for q in perms:
                comp = tuple(p[q[i]] for i in range(n))
                assert ext[comp] == {c: ext[p][ext[q][c]] for c in u.top}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    print("PASS criterion 2: Aut(WF_2(A)) = Sym(A) with unique extensions, n=1,2,3")


def test_criterion_3_embedding_automorphism_dichotomy():
    # injective atom maps on a finite pool are permutations, hence automorphisms
    u3 = build_universe(3, 2)
    for sigma in ({0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 2}, {0: 0, 1: 1, 2: 2}):
        report = classify_map(u3, extend_map(u3, sigma))
        assert report.verdict == "automorphism"
        assert report.membership_exact and report.rank_preserved

    # embedding a 2-atom stage into a 3-atom stage is a proper embedding
    u2 = build_universe(2, 2)
    emb = extend_map(u2, {0: 0, 1: 1}, into=u3)
    report = classify_map(u2, emb)
    assert report.verdict == "proper-embedding"
    assert report.injective and not report.surjective_onto_top
    assert report.membership_exact  # all pairs, exact
    assert report.pure_sets_fixed   # pointwise fixity on pure sets
    print("PASS criterion 3: embedding/automorphism dichotomy with exact checks")


def test_criterion_4_semantics_separations():
    for mode in Semantics:
        assert equal(OMEGA, TWO_CYCLE, mode), mode
    assert equal(XQ, OMEGA, Semantics.AFA)
    assert not equal(XQ, OMEGA, Semantics.SAFA)
    assert not equal(XQ, OMEGA, Semantics.FAFA)

    u = Universe()
    a, b = u.add_quine_atom(), u.add_quine_atom()
    doubleton = u.add_set([a, b])
    assert automorphisms(u.picture_of(doubleton)).order == 2
    print("PASS criterion 4: mode separations and the Boffa swap automorphism")


def test_criterion_5_well_founded_agreement():
    rng = random.Random(20240805)
    mismatches = 0
    for _ in range(1000):
        g = random_well_founded_apg(rng, 12)
        canons = [canonicalize(g, s).canonical for s in Semantics]
        collapse = mostowski_collapse(g)
        for c in canons:
            if pointed_isomorphic(c, collapse) is None:
                mismatches += 1
        if pointed_isomorphic(canons[0], canons[1]) is None:
            mismatches += 1
        if pointed_isomorphic(canons[1], canons[2]) is None:
            mismatches += 1
    assert mismatches == 0
    print("PASS criterion 5: 1000 well-founded graphs, all canonical forms "
          "match the rank-stratified collapse oracle")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20240806)
    for _ in range(1000):
        g = random_apg(rng, 40)
        assert max_bisimulation(g) == naive_bisimulation(g)
    rng = random.Random(20240807)
    for _ in range(500):
        g1 = random_apg(rng, 10)
        g2 = random_apg(rng, 10)
        assert equal(g1, g2, Semantics.SAFA) == safa_equal_by_unfolding(g1, g2)
    print("PASS criterion 6: 1000 bisimulation oracle agreements, "
          "500 SAFA truncated-unfolding oracle agreements")


def test_criterion_7_canonical_forms_are_rigid():
    rng = random.Random(20240808)
    for _ in range(500):
        g = random_apg(rng, 12)
        for s in Semantics:
            c = canonicalize(g, s).canonical
            assert automorphisms(c).order == 1, (s, g.children)
    print("PASS criterion 7: 500 graphs, canonical forms rigid in all modes")


def test_criterion_8_boffa_store():
    u = Universe()
    atoms = []
    for _ in range(100):
        a = u.add_quine_atom()
        assert a not in atoms
        atoms.append(a)
        u.check_extensionality()

    rng = random.Random(20240809)
    for _ in range(100):
        w = Universe()
        zero = w.realize({"z": []}, {})["z"]
        pool = [zero] + [w.add_quine_atom() for _ in range(rng.randint(0, 5))]
        while len(w) < rng.randint(5, 60):
            w.add_set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            pool = sorted(w.sets)
        f: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            f = w.extend_iso_step(f, rng.choice(pool))
            check_membership_iso(w, f)
            w.check_extensionality()
        for i, j in f.items():
            if w.is_well_founded_id(i):
                assert i == j
    print("PASS criterion 8: 100 atoms and 100 verified forth-extension tasks")


def test_criterion_9_bisimulation_performance():
    import gc

    rng = random.Random(20240810)
    g = random_performance_graph(rng, 100_000, 300_000)
    # warm the allocator on a quarter-size instance so the timed calls
    # measure the algorithm, not first-touch arena growth; take the best
    # of three runs to filter scheduler noise
    max_bisimulation(random_performance_graph(rng, 25_000, 75_000))
    elapsed = float("inf")
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        p = max_bisimulation(g)
        elapsed = min(elapsed, time.perf_counter() - start)
    # Outside the timed loop: the partition is stable (all members of a
    # block have the same set of child blocks), and it has the coarsest
    # stable partition's class count, which stability alone would not pin:
    # the discrete partition is stable too.
    child_blocks: dict[int, frozenset] = {}
    for u, kids in enumerate(g.children):
        mine = frozenset([p.class_of[v] for v in kids])
        assert child_blocks.setdefault(p.class_of[u], mine) == mine
    assert p.class_count == 90150
    assert elapsed < 5.0, f"bisimulation took {elapsed:.2f}s"
    print(f"PASS criterion 9: 10^5 nodes / 3*10^5 edges in {elapsed:.2f}s (< 5s)")


def test_criterion_10_language_round_trip():
    failures = 0
    for path in sorted((DOCS / "examples").glob("*.hs-set")):
        mode = path.name.split(".")[1]
        program = parse(path.read_text(encoding="utf-8"))
        if mode == "boffa":
            u = Universe()
            ids = flatten_into(program, u)
            graphs = {name: u.picture_of(i) for name, i in ids.items()}
        else:
            graphs = flatten(program)
        for g in graphs.values():
            back = flatten(parse(unparse(g)))["x0"]
            if pointed_isomorphic(g, back) is None:
                failures += 1

    rng = random.Random(20240811)
    for _ in range(500):
        g = random_apg(rng, 12)
        back = flatten(parse(unparse(g)))["x0"]
        if pointed_isomorphic(g, back) is None:
            failures += 1
    assert failures == 0
    print("PASS criterion 10: docs corpus and 500 random graphs round-trip")
