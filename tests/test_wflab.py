import collections
import itertools
import random

import pytest

from hypersets.errors import NotInjective, SizeLimitExceeded
from hypersets.wflab import (
    ExtendedMap,
    LevelledUniverse,
    all_automorphisms,
    build_universe,
    classify_map,
    extend_map,
)

from oracles import pairwise_membership_exact


class TestBuildUniverse:
    def test_pure_level_sizes(self):
        u = build_universe(0, 4)
        assert [len(level) for level in u.levels] == [0, 1, 2, 4, 16]

    def test_atoms_survive_into_level_one(self):
        u = build_universe(2, 1)
        assert len(u.levels[1]) == 4
        for a in u.atoms:
            assert a in u.levels[1]
            assert u.members[a] == frozenset((a,))

    def test_level_two_size(self):
        u = build_universe(2, 2)
        assert len(u.levels[2]) == 16

    def test_levels_increase(self):
        u = build_universe(2, 2)
        for small, large in zip(u.levels, u.levels[1:]):
            assert set(small) <= set(large)

    def test_rank(self):
        u = build_universe(1, 2)
        empty = u.intern[frozenset()]
        assert u.rank(u.atoms[0]) == 0
        assert u.rank(empty) == 0
        singleton_empty = u.intern[frozenset((empty,))]
        assert u.rank(singleton_empty) == 1

    def test_cap(self):
        with pytest.raises(SizeLimitExceeded):
            build_universe(3, 3)
        with pytest.raises(SizeLimitExceeded):
            build_universe(0, 6)

    @pytest.mark.parametrize("atom_count, levels", [(-1, 1), (2, -3), (-1, -1)])
    def test_negative_counts_rejected(self, atom_count, levels):
        # (-1, 1) gave levels [[], [-1]] and (2, -3) gave stage 0
        with pytest.raises(ValueError, match="must be >= 0"):
            build_universe(atom_count, levels)


class TestHereditaryValue:
    def test_each_members_read_once(self):
        # Every value is kept after its first read, so reading each top-level
        # value twice reads each non-atom code's members once.
        u = build_universe(2, 2)
        reads = collections.Counter()

        class Members(dict):
            def __getitem__(self, code):
                reads[code] += 1
                return super().__getitem__(code)

        u.members = Members(u.members)
        values = [u.hereditary_value(c) for c in u.top]
        assert [u.hereditary_value(c) for c in u.top] == values
        assert len(set(values)) == len(u.top)
        assert reads == dict.fromkeys(set(u.top) - set(u.atoms), 1)


class TestExtendMap:
    def test_identity_extends_to_identity(self):
        u = build_universe(2, 2)
        m = extend_map(u, {0: 0, 1: 1})
        assert all(m.full_map[c] == c for c in u.top)

    def test_transposition_fixes_eight_of_sixteen(self):
        u = build_universe(2, 2)
        m = extend_map(u, {0: 1, 1: 0})
        assert sum(1 for c in u.top if m.full_map[c] == c) == 8
        assert all(m.full_map[m.full_map[c]] == c for c in u.top)

    def test_three_cycle_has_order_three(self):
        u = build_universe(3, 2)
        m = extend_map(u, {0: 1, 1: 2, 2: 0}).full_map
        twice = {c: m[m[c]] for c in u.top}
        thrice = {c: m[twice[c]] for c in u.top}
        assert any(m[c] != c for c in u.top)
        assert any(twice[c] != c for c in u.top)
        assert all(thrice[c] == c for c in u.top)

    def test_not_injective(self):
        u = build_universe(2, 1)
        with pytest.raises(NotInjective):
            extend_map(u, {0: 0, 1: 0})

    def test_functoriality_full_s3(self):
        u = build_universe(3, 2)
        perms = list(itertools.permutations(range(3)))
        exts = {
            p: extend_map(u, {i: p[i] for i in range(3)}).full_map for p in perms
        }
        for p in perms:
            for q in perms:
                comp = tuple(p[q[i]] for i in range(3))
                lhs = exts[comp]
                rhs = {c: exts[p][exts[q][c]] for c in u.top}
                assert lhs == rhs


class TestClassifyMap:
    def test_transposition_is_automorphism(self):
        u = build_universe(2, 2)
        rep = classify_map(u, extend_map(u, {0: 1, 1: 0}))
        assert rep.verdict == "automorphism"
        assert rep.injective and rep.surjective_onto_top
        assert rep.membership_exact
        assert rep.pure_sets_fixed
        assert rep.rank_preserved

    def test_embedding_two_into_three(self):
        u2 = build_universe(2, 2)
        u3 = build_universe(3, 2)
        rep = classify_map(u2, extend_map(u2, {0: 0, 1: 1}, into=u3))
        assert rep.verdict == "proper-embedding"
        assert rep.injective and not rep.surjective_onto_top
        assert rep.membership_exact
        assert rep.pure_sets_fixed
        assert rep.rank_preserved

    def test_equal_target_built_separately_is_the_source(self):
        # build_universe is deterministic, so an injective map onto a stage
        # over as many atoms is a permutation of the source's own codes.
        u = build_universe(2, 2)
        rep = classify_map(u, extend_map(u, {0: 1, 1: 0}, into=build_universe(2, 2)))
        assert rep.verdict == "automorphism"
        assert rep.injective and rep.surjective_onto_top
        assert rep.fixed_points == 8

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)])
    def test_universe_must_be_the_maps_source(self, shape):
        # An equal-shaped copy read the identity as a proper embedding; a
        # universe of another shape raised KeyError.
        m = extend_map(build_universe(1, 1), {0: 0})
        with pytest.raises(ValueError, match="source universe"):
            classify_map(build_universe(*shape), m)
        assert classify_map(m.source, m).verdict == "automorphism"

    def test_pure_content_fixed_pointwise(self):
        u = build_universe(3, 2)
        m = extend_map(u, {0: 1, 1: 2, 2: 0})
        pure: set[int] = set()  # no atom in the transitive closure
        for level in u.levels[1:]:
            pure |= {c for c in level if u.members[c] <= pure}
        assert pure & set(u.top)
        for c in pure & set(u.top):
            assert m.full_map[c] == c


    @pytest.mark.parametrize("levels", [0, 1, 2])
    def test_membership_matches_pairwise_oracle(self, levels):
        # Every atom permutation, and every injective atom map into a
        # universe with more atoms.
        for a in range(4):
            u = build_universe(a, levels)
            for b in range(a, 4):
                target = u if b == a else build_universe(b, levels)
                for image in itertools.permutations(range(b), a):
                    m = extend_map(u, dict(zip(u.atoms, image)), into=target)
                    rep = classify_map(u, m)
                    assert rep.membership_exact == pairwise_membership_exact(u, m)
                    assert rep.membership_exact and rep.injective
                    assert rep.verdict == ("automorphism" if b == a else "proper-embedding")

    def test_broken_maps_match_pairwise_oracle(self):
        # Hand-built full maps that send top-level elements anywhere in the
        # target's top level, so membership and injectivity can both fail.
        rng = random.Random(73)
        seen = set()
        for _ in range(300):
            a = rng.randint(0, 2)
            levels = rng.randint(1, 2)
            u = build_universe(a, levels)
            target = build_universe(rng.randint(a, 2), levels)
            full = {x: rng.choice(target.top) for x in u.top}
            m = ExtendedMap(full, u, target)
            rep = classify_map(u, m)
            assert rep.membership_exact == pairwise_membership_exact(u, m)
            assert rep.injective == (len(set(full.values())) == len(full))
            seen.add((rep.injective, rep.membership_exact))
        assert {(True, False), (False, False)} <= seen

    def test_non_injective_and_swapped_maps(self):
        u = build_universe(2, 2)
        ident = extend_map(u, {0: 0, 1: 1}).full_map
        empty, a0 = u.intern[frozenset()], u.atoms[0]
        for full in (
            {**ident, empty: a0},                 # two elements onto a0
            {**ident, empty: a0, a0: empty},      # a bijection, not an embedding
        ):
            m = ExtendedMap(full, u, u)
            rep = classify_map(u, m)
            assert not rep.membership_exact
            assert rep.membership_exact == pairwise_membership_exact(u, m)
            assert rep.injective == (len(set(full.values())) == len(full))


    def test_hand_built_universe_non_injective_yet_exact(self):
        # Two empty sets e1, e2 in one level, and y = {z, e1, e2} with z
        # below the top: x in y <=> m(x) in m(y) holds for all top-level
        # pairs although m sends e1 and e2 to one set.
        u = LevelledUniverse(
            atoms=(),
            levels=[[0], [1, 2, 3]],
            members={0: frozenset(), 1: frozenset(), 2: frozenset(), 3: frozenset({0, 1, 2})},
            intern={},
            first_level={0: 0, 1: 1, 2: 1, 3: 1},
        )
        target = build_universe(0, 2)
        empty = target.intern[frozenset()]
        m = ExtendedMap({1: empty, 2: empty, 3: target.intern[frozenset({empty})]}, u, target)
        rep = classify_map(u, m)
        assert pairwise_membership_exact(u, m)
        assert rep.membership_exact and not rep.injective


class TestAllAutomorphisms:
    def test_counts_are_factorials(self):
        for n in (1, 2, 3):
            u = build_universe(n, 2)
            assert all_automorphisms(u).count == [1, 1, 2, 6][n]

    def test_every_automorphism_extends_its_atom_restriction(self):
        u = build_universe(3, 2)
        for perm in all_automorphisms(u).elements:
            sigma = {a: perm[a] for a in u.atoms}
            assert extend_map(u, sigma).full_map == perm

    def test_membership_preserved_by_all(self):
        u = build_universe(2, 2)
        for perm in all_automorphisms(u).elements:
            for x in u.top:
                for y in u.top:
                    assert (x in u.members[y]) == (perm[x] in u.members[perm[y]])

    def test_elements_in_order_of_image_codes(self):
        for n in (2, 3):
            u = build_universe(n, 2)
            keys = [[perm[c] for c in u.top] for perm in all_automorphisms(u).elements]
            assert keys == sorted(keys)

    def test_cap(self):
        u = build_universe(3, 2)
        with pytest.raises(SizeLimitExceeded):
            all_automorphisms(u, cap=10)

    def test_cap_counts_top_level_elements(self):
        u = build_universe(2, 2)
        assert all_automorphisms(u, cap=len(u.top)).count == 2
        with pytest.raises(SizeLimitExceeded):
            all_automorphisms(u, cap=len(u.top) - 1)
