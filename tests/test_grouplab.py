import collections
import random
import time

import pytest

import hypersets.cli as cli
from hypersets.apg import pointed_isomorphic
from hypersets.errors import OrderTooLarge, SizeLimitExceeded
from hypersets.grouplab import (
    PRESET_NAMES,
    GroupTable,
    aut_group_of,
    build_A_G,
    cyclic_group,
    groups_isomorphic,
    klein_four_group,
    preset_group,
    symmetric_group_3,
)
from hypersets.hsl import _pair_parts
from oracles import a_g_picture, small_groups


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """G x H on elements a * |H| + b, a in G and b in H."""
    m = h.order
    n = g.order * m
    return GroupTable.from_rows([
        [g.mul(x // m, y // m) * m + h.mul(x % m, y % m) for y in range(n)] for x in range(n)
    ])


def relabel(g: GroupTable, rng: random.Random) -> GroupTable:
    """g with its elements renamed by a random permutation p: p(x) * p(y)
    = p(x * y)."""
    p = rng.sample(range(g.order), g.order)
    rows = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            rows[p[x]][p[y]] = p[g.mul(x, y)]
    return GroupTable.from_rows(rows)


def decode_tuple(u, x: int, arity: int) -> tuple[int, ...]:
    """Components of the tuple x = <c1, <c2, ... <c(k-1), ck>>>, read off
    the Kuratowski pairs {{a}, {a, b}} that the language writes."""
    components = []
    for _ in range(arity - 1):
        parts = _pair_parts(x, u.members)
        assert parts is not None, f"{x} is not a pair"
        components.append(parts[0])
        x = parts[1]
    return (*components, x)


class TestGroupTable:
    def test_rejects_broken_identity(self):
        with pytest.raises(ValueError):
            GroupTable(2, ((0, 1), (1, 1)), 0)

    def test_rejects_non_associative(self):
        # a "subtraction-like" table fails associativity
        with pytest.raises(ValueError):
            GroupTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 1, 0]])

    @pytest.mark.parametrize("rows, message", [
        pytest.param([[0], [1, 0]], "n rows of n", id="ragged"),
        pytest.param([[0, 1], [1, "x"]], "'x' is not an element", id="string-entry"),
        pytest.param([0, 1], "n rows of n", id="rows-not-sequences"),
        pytest.param([[0, 1], "10"], "n rows of n", id="string-row"),
        pytest.param([b"\x00\x01", b"\x01\x00"], "n rows of n", id="bytes-rows"),
        pytest.param([[False]], "False is not an element", id="bool-entry"),
        pytest.param([[0, 1], [1, 2]], "2 is not an element", id="out-of-range"),
    ])
    def test_from_rows_rejects_malformed_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            GroupTable.from_rows(rows)

    def test_element_orders(self):
        s3 = symmetric_group_3()
        orders = sorted(s3.element_order(i) for i in range(6))
        assert orders == [1, 2, 2, 2, 3, 3]

    def test_presets(self):
        assert preset_group("z1").order == 1
        assert preset_group("v4").order == 4
        with pytest.raises(ValueError):
            preset_group("z9")


class TestBuildAG:
    def test_trivial_group_rigid(self):
        art = build_A_G(preset_group("z1"))
        rep = aut_group_of(art)
        assert rep.automorphism_count == 1

    def test_z2_has_two_automorphisms(self):
        art = build_A_G(preset_group("z2"))
        rep = aut_group_of(art)
        assert rep.automorphism_count == 2
        assert groups_isomorphic(rep.table, preset_group("z2"))

    def test_z3_translations(self):
        G = preset_group("z3")
        art = build_A_G(G)
        rep = aut_group_of(art)
        assert rep.automorphism_count == 3
        for g, perm in rep.translations.items():
            for h in range(3):
                assert perm[art.atom_ids[h]] == art.atom_ids[G.mul(g, h)]

    def test_numerals_fixed(self):
        art = build_A_G(preset_group("z2"))
        rep = aut_group_of(art)
        for perm in rep.translations.values():
            for i in art.numeral_ids:
                assert perm[i] == i

    def test_gadget_decode_invariant(self):
        G = preset_group("v4")
        art = build_A_G(G)
        for (g, h), r in art.gadget_ids.items():
            assert decode_tuple(art.universe, r, 4) == (
                r,
                art.atom_ids[g],
                art.numeral_ids[h],
                art.atom_ids[G.mul(g, h)],
            )

    def test_extensionality_survives_build(self):
        art = build_A_G(preset_group("z4"))
        art.universe.check_extensionality()

    def test_root_closure_is_exactly_the_declared_material(self):
        art = build_A_G(preset_group("z3"))
        u = art.universe
        declared = set(art.atom_ids) | set(art.gadget_ids.values())
        expected = set()
        for i in declared:
            expected |= u._transitive_closure(i)
        assert u.members(art.root) == frozenset(expected)
        assert set(art.numeral_ids) <= expected
        assert u._transitive_closure(art.root) == expected | {art.root}

    @pytest.mark.parametrize("name, nodes", [
        ("z1", 11), ("z2", 34), ("z3", 72), ("z4", 124), ("v4", 124), ("s3", 270),
        *((k, 472) for k, t in small_groups().items() if len(t) == 8),
    ])
    def test_picture_matches_independent_construction(self, name, nodes):
        if name in PRESET_NAMES:
            group = preset_group(name)
        else:
            group = GroupTable.from_rows(small_groups()[name])
        art = build_A_G(group)
        pic = art.universe.picture_of(art.root)
        want = a_g_picture(group.table)
        assert pic.node_count == want.node_count == nodes
        assert pointed_isomorphic(pic, want) is not None

    def test_group_cap(self, monkeypatch, capsys):
        # build_A_G takes no cap: the CLI checks --group-cap before it
        # validates the table, so A_G is never built for a group over it.
        def refuse(group):
            raise AssertionError("A_G built for a group over the cap")

        monkeypatch.setattr(cli, "build_A_G", refuse)
        assert cli.main(["group", "--preset", "s3", "--group-cap", "5"]) == cli.EXIT_CAP
        assert capsys.readouterr().err == "size cap: group order 6 exceeds cap 5\n"

    def test_all_groups_of_order_eight(self):
        # Order 8 is group's default cap: the automorphism search of A_G must
        # stay quick there, and each group's table must be told apart from
        # the other four.
        groups = {k: GroupTable.from_rows(t) for k, t in small_groups().items() if len(t) == 8}
        start = time.perf_counter()
        for name, group in groups.items():
            rep = aut_group_of(build_A_G(group))
            assert rep.automorphism_count == 8, name
            for other, h in groups.items():
                assert groups_isomorphic(rep.table, h) == (other == name), (name, other)
        assert time.perf_counter() - start < 3.0


class TestGroupsIsomorphic:
    def test_z4_vs_v4(self):
        assert not groups_isomorphic(cyclic_group(4), klein_four_group())

    def test_z2_vs_sym2(self):
        sym2 = GroupTable.from_rows([[0, 1], [1, 0]])
        assert groups_isomorphic(cyclic_group(2), sym2)

    def test_s3_vs_z6(self):
        assert not groups_isomorphic(symmetric_group_3(), cyclic_group(6))

    def test_relabeled_s3(self):
        s3 = symmetric_group_3()
        relabel = [3, 0, 5, 1, 4, 2]
        inv = [relabel.index(i) for i in range(6)]
        rows = [
            [relabel[s3.mul(inv[i], inv[j])] for j in range(6)] for i in range(6)
        ]
        assert groups_isomorphic(s3, GroupTable.from_rows(rows))

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge) as info:
            groups_isomorphic(cyclic_group(13), cyclic_group(13))
        assert isinstance(info.value, SizeLimitExceeded)
        with pytest.raises(OrderTooLarge):
            groups_isomorphic(cyclic_group(2), cyclic_group(13))

    def test_true_exactly_within_one_class(self):
        # small_groups has 24 tables, as many as there are classes of order
        # 1 to 12; no two of them are isomorphic, so there is one per class.
        # Each is also relabelled at random, twice.
        classes = collections.Counter(len(t) for t in small_groups().values())
        assert [classes[n] for n in range(1, 13)] == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5]
        rng = random.Random(30)
        tables = []
        for name, rows in small_groups().items():
            group = GroupTable.from_rows(rows)
            tables += [(name, group), *((name, relabel(group, rng)) for _ in range(2))]
        for name, g in tables:
            for other, h in tables:
                assert groups_isomorphic(g, h) == (name == other), (name, other)

    def test_element_orders_stop_deciding_at_order_sixteen(self):
        # Z4 x Z4 and Q8 x Z2 have one element of order 1, three of order 2
        # and twelve of order 4, but only the first is abelian: past order
        # 15 equal element orders do not make groups isomorphic.
        z4xz4 = direct_product(cyclic_group(4), cyclic_group(4))
        q8xz2 = direct_product(GroupTable.from_rows(small_groups()["q8"]), cyclic_group(2))
        orders = [sorted(map(t.element_order, range(16))) for t in (z4xz4, q8xz2)]
        assert orders[0] == orders[1] == [1, 2, 2, 2] + [4] * 12
        assert [t.table == tuple(zip(*t.table)) for t in (z4xz4, q8xz2)] == [True, False]
        with pytest.raises(OrderTooLarge):
            groups_isomorphic(z4xz4, q8xz2)
