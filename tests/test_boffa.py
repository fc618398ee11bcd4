import random

import pytest

from hypersets.apg import pointed_isomorphic
from hypersets.boffa import Universe
from hypersets.canon import is_rigid
from hypersets.errors import NotEndExtension, NotExtensional

from oracles import check_membership_iso

fs = frozenset


def vn_universe() -> tuple[Universe, dict[str, int]]:
    """Universe holding von Neumann 0, 1, 2."""
    u = Universe()
    phi = u.realize({"2": ["1", "0"], "1": ["0"], "0": []}, {})
    return u, {name: phi[name] for name in ("0", "1", "2")}


class TestQuineAtoms:
    def test_first_atom_is_self_membered(self):
        u = Universe()
        a = u.add_quine_atom()
        assert u.sets[a] == fs([a])

    def test_third_atom_distinct_from_two(self):
        u = Universe()
        ids = [u.add_quine_atom() for _ in range(3)]
        assert len(set(ids)) == 3
        u.check_extensionality()

    def test_hundred_atoms_keep_invariant(self):
        u = Universe()
        seen = set()
        for _ in range(100):
            a = u.add_quine_atom()
            assert a not in seen
            seen.add(a)
            u.check_extensionality()

    def test_ie_violation_witness(self):
        u = Universe()
        a, b = u.add_quine_atom(), u.add_quine_atom()
        assert a != b
        assert pointed_isomorphic(u.picture_of(a), u.picture_of(b)) is not None


class TestRealize:
    def test_atom_over_empty_set(self):
        u = Universe()
        phi0 = u.realize({"z": []}, {})
        zero = phi0["z"]
        phi = u.realize({"z": [], "q": ["q"]}, {"z": zero})
        assert u.members(phi["q"]) == {phi["q"]}
        assert u.sets[zero] == fs()

    def test_singleton_of_empty_reuses(self):
        u, ids = vn_universe()
        phi = u.realize({"z": [], "s": ["z"]}, {"z": ids["0"]})
        assert phi["s"] == ids["1"]

    def test_singleton_minted_when_absent(self):
        u = Universe()
        phi0 = u.realize({"z": []}, {})
        phi = u.realize({"z": [], "s": ["z"]}, {"z": phi0["z"]})
        assert u.sets[phi["s"]] == fs([phi0["z"]])

    def test_end_extension_violation(self):
        u = Universe()
        zero = u.realize({"z": []}, {})["z"]
        with pytest.raises(NotEndExtension):
            u.realize({"z": ["n"], "n": []}, {"z": zero})

    def test_non_extensional_input_rejected(self):
        u = Universe()
        with pytest.raises(NotExtensional):
            u.realize({"x": [], "y": []}, {})

    # One case per check realize makes on its input, over von Neumann 0, 1,
    # 2; each graph also gets new ill-founded nodes that a successful call
    # would mint.
    FAILING_REALIZE = {
        "edge outside the graph": (ValueError, "outside the graph", {"a": ["b"]}, {}),
        "not extensional": (NotExtensional, "identical members", {"x": [], "y": []}, {}),
        "old part not injective": (
            ValueError, "two nodes to one id", {"z": [], "w": ["z"]}, {"z": "0", "w": "0"},
        ),
        "old node not in graph": (ValueError, "not a node of the graph", {"z": []}, {"o": "0"}),
        "unknown old id": (ValueError, "not in the universe", {"z": []}, {"z": None}),
        "old part not transitive": (
            ValueError, "not transitive", {"o": ["z"], "z": []}, {"o": "1"},
        ),
        "new member of an old set": (
            NotEndExtension, "new member", {"z": ["n"], "n": ["fresh"], "fresh": []}, {"z": "0"},
        ),
        "old membership altered": (
            NotEndExtension, "altered",
            {"z": [], "o": ["z"], "t": ["o"]}, {"z": "0", "o": "1", "t": "2"},
        ),
    }

    def test_failed_realize_leaves_store_unchanged(self):
        for case, (exc, message, ext, old) in self.FAILING_REALIZE.items():
            u, ids = vn_universe()
            ext = {**ext, "q": ["q"], "w2": ["q", "w2"], "s": ["w2"]}
            old = {k: 999 if name is None else ids[name] for k, name in old.items()}
            before = (dict(u.sets), dict(u._by_members), u.next_id)
            with pytest.raises(exc, match=message):
                u.realize(ext, old)
            assert (u.sets, u._by_members, u.next_id) == before, case

    def test_identity_on_old_part(self):
        u, ids = vn_universe()
        old = {i: i for i in u._transitive_closure(ids["2"])}
        ext = {i: sorted(u.sets[i]) for i in old}
        ext["new"] = [ids["2"], ids["0"]]
        phi = u.realize(ext, old)
        for i in old:
            assert phi[i] == i

    def test_ill_founded_minted_fresh_every_call(self):
        u = Universe()
        a1 = u.realize({"q": ["q"]}, {})["q"]
        a2 = u.realize({"q": ["q"]}, {})["q"]
        assert a1 != a2
        u.check_extensionality()


class TestExtendIsoStep:
    def test_fresh_atom_maps_to_fresh_atom(self):
        u = Universe()
        zero = u.realize({"z": []}, {})["z"]
        a = u.add_quine_atom()
        f = u.extend_iso_step({zero: zero}, a)
        assert f[a] != a and u.members(f[a]) == {f[a]}
        check_membership_iso(u, f)

    def test_already_covered(self):
        u = Universe()
        a, b = u.add_quine_atom(), u.add_quine_atom()
        f = {a: b, b: a}
        assert u.extend_iso_step(f, a) == f

    def test_well_founded_forced_identity(self):
        u, ids = vn_universe()
        f = u.extend_iso_step({}, ids["2"])
        assert all(f[i] == i for i in f)
        check_membership_iso(u, f)

    def test_random_tasks_verified(self):
        rng = random.Random(77)
        for _ in range(60):
            u = Universe()
            zero = u.realize({"z": []}, {})["z"]
            atoms = [u.add_quine_atom() for _ in range(rng.randint(0, 4))]
            # grow some structure
            pool = [zero] + atoms
            for _ in range(rng.randint(0, 10)):
                pool.append(u.add_set(rng.sample(pool, rng.randint(0, min(3, len(pool))))))
            f: dict[int, int] = {}
            for _ in range(rng.randint(1, 4)):
                x = rng.choice(pool)
                f = u.extend_iso_step(f, x)
                check_membership_iso(u, f)
                assert x in f
                u.check_extensionality()
            # identity on well-founded content
            for i, j in f.items():
                if u.is_well_founded_id(i):
                    assert i == j


class TestPictures:
    def test_atom_picture(self):
        u = Universe()
        a = u.add_quine_atom("a")
        pic = u.picture_of(a)
        assert pic.node_count == 1 and pic.children[0] == fs([0])
        assert pic.labels == {0: "a"}

    def test_doubleton_picture(self):
        u = Universe()
        a, b = u.add_quine_atom(), u.add_quine_atom()
        d = u.add_set([a, b])
        pic = u.picture_of(d)
        assert pic.node_count == 3
        assert len(pic.children[0]) == 2

    def test_vn2_picture_rigid(self):
        u, ids = vn_universe()
        assert is_rigid(u.picture_of(ids["2"]))

    def test_wf_sets_unique_up_to_iso(self):
        u, ids = vn_universe()
        more = u.add_set([ids["0"], ids["1"], ids["2"]])
        wf = [i for i in u.sets if u.is_well_founded_id(i)]
        for i in wf:
            for j in wf:
                if i != j:
                    assert pointed_isomorphic(u.picture_of(i), u.picture_of(j)) is None


def _random_extension(rng: random.Random, u: Universe, old_ids: set[int]) -> tuple[dict, dict]:
    """A random graph over new keys n0, n1, ... end-extending the transitive
    set old_ids (keyed ("o", i)); new nodes may be self-membered or lie on
    cycles, and may share members, which realize rejects."""
    old = {("o", i): i for i in sorted(old_ids)}
    ext = {k: [("o", c) for c in u.sets[i]] for k, i in old.items()}
    new = [f"n{j}" for j in range(rng.randint(1, 5))]
    for k in new:
        pool = new + list(old)
        ext[k] = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        if rng.random() < 0.2:
            ext[k].append(k)
    return ext, old


def _random_step(rng: random.Random, u: Universe) -> None:
    """One random operation on u."""
    op = rng.choice(["atom", "set", "realize", "realize_old", "iso"])
    ids = sorted(u.sets)
    if op == "atom":
        u.add_quine_atom(rng.choice([None, "x"]))
    elif op == "set":
        u.add_set(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
    elif op in ("realize", "realize_old"):
        old_ids: set[int] = set()
        if op == "realize_old" and ids:
            old_ids = u._transitive_closure(rng.choice(ids))
        ext, old = _random_extension(rng, u, old_ids)
        try:
            u.realize(ext, old)
        except NotExtensional:
            pass
    elif op == "iso" and ids:
        u.extend_iso_step(u.extend_iso_step({}, rng.choice(ids)), rng.choice(ids))


class TestMemberIndex:
    def test_index_holds_every_set_after_every_step(self):
        rng = random.Random(2024)
        ops = 0
        for _ in range(300):
            u = Universe()
            for _ in range(rng.randint(1, 10)):
                _random_step(rng, u)
                ops += 1
                assert u._by_members == {m: i for i, m in u.sets.items()}
                size, next_id = len(u), u.next_id
                for i in list(u.sets):
                    assert u.add_set(u.sets[i]) == i
                assert (len(u), u.next_id) == (size, next_id)
                u.check_extensionality()
        assert ops >= 1000
