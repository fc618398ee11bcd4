import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hypersets.apg import is_well_founded, pointed_isomorphic, rank_map
from hypersets.boffa import Universe
from hypersets.canon import Semantics, equal, is_rigid
from hypersets.errors import (
    AtomOutsideBoffa,
    DuplicateDefinition,
    HslSyntaxError,
    SizeLimitExceeded,
    UndefinedName,
)
from hypersets import hsl
from hypersets.grouplab import decode_pair, make_order_gadget
from hypersets.hsl import (
    AtomDecl,
    Definition,
    HslProgram,
    NameRef,
    SetTerm,
    flatten,
    flatten_into,
    parse,
    unparse,
)
from hypersets.random_graphs import random_apg

fs = frozenset

# Programs built from values, which the parser never checked, binding x twice.
BOUND_TWICE = {
    "two definitions": (Definition("x", SetTerm(())), Definition("x", SetTerm((NameRef("x"),)))),
    "atom and definition": (AtomDecl("x"), Definition("x", SetTerm(()))),
    "two atoms": (AtomDecl("x"), AtomDecl("x")),
}


class TestParse:
    def test_self_reference(self):
        p = parse("x = {x};")
        assert len(p.statements) == 1
        assert p.defined_names == ["x"]

    def test_chain_cycle(self):
        p = parse("a0 = {a1}; a1 = {a2}; a2 = {a0};")
        assert p.defined_names == ["a0", "a1", "a2"]

    def test_tuple_definition(self):
        p = parse("p = <a,b>; a = {}; b = {a};")
        assert p.defined_names == ["p", "a", "b"]

    def test_comments_and_whitespace(self):
        p = parse("# a comment\n  x   =\n{ x };  # trailing\n")
        assert p.defined_names == ["x"]

    def test_syntax_error_position(self):
        with pytest.raises(HslSyntaxError) as err:
            parse("x = {x}\ny = {};")
        assert err.value.line == 2

    def test_duplicate_definition(self):
        with pytest.raises(DuplicateDefinition):
            parse("x = {}; x = {x};")
        with pytest.raises(DuplicateDefinition):
            parse("atom x; x = {};")

    def test_singleton_tuple_rejected(self):
        with pytest.raises(HslSyntaxError):
            parse("p = <a>; a = {};")


class TestFlatten:
    def test_quine(self):
        g = flatten(parse("x = {x};"))["x"]
        assert g.node_count == 1 and g.children[0] == fs([0])

    def test_pair_has_kuratowski_shape(self):
        g = flatten(parse("p = <a,b>; a = {}; b = {a};"))["p"]
        assert g.node_count == 5
        kids = sorted(g.children[g.root])
        assert sorted(len(g.children[k]) for k in kids) == [1, 2]

    def test_numeral(self):
        g = flatten(parse("n = 2;"))["n"]
        assert g.node_count == 3 and rank_map(g)[g.root] == 2

    def test_numerals_well_founded_and_rigid(self):
        for k in range(6):
            g = flatten(parse(f"n = {k};"))["n"]
            assert is_well_founded(g)
            assert is_rigid(g)

    def test_edge_budget_counts_the_whole_program(self, monkeypatch):
        # numeral 3 has 6 edges, the set {a} 1
        monkeypatch.setattr(hsl, "FLATTEN_EDGE_BUDGET", 12)
        assert flatten(parse("a = 3; b = 3;"))["b"].edge_count == 6
        with pytest.raises(SizeLimitExceeded):
            flatten(parse("a = 3; b = {a}; c = 3;"))
        with pytest.raises(SizeLimitExceeded):
            flatten_into(parse("a = 3; b = 4;"), Universe())

    def test_undefined_name(self):
        with pytest.raises(UndefinedName):
            flatten(parse("x = {y};"))

    def test_atom_outside_boffa(self):
        with pytest.raises(AtomOutsideBoffa):
            flatten(parse("atom a;"))

    def test_alias(self):
        gs = flatten(parse("x = y; y = {{}};"))
        assert pointed_isomorphic(gs["x"], gs["y"]) is not None

    def test_alias_cycle_rejected(self):
        with pytest.raises(ValueError):
            flatten(parse("x = y; y = x;"))

    def test_forward_reference(self):
        gs = flatten(parse("x = {y}; y = {};"))
        assert gs["x"].node_count == 2

    def test_selected_names(self):
        program = parse("a = {b}; b = {a, c}; c = 3; d = <a, c>;")
        every = flatten(program)
        some = flatten(program, ["d", "a"])
        assert list(some) == ["d", "a"]
        for name, g in some.items():
            assert g == every[name]

    def test_name_bound_twice(self):
        with pytest.raises(DuplicateDefinition, match="'x'"):
            flatten(HslProgram(BOUND_TWICE["two definitions"]))

    def test_selected_name_undefined(self):
        with pytest.raises(UndefinedName, match="name 'z' is not defined"):
            flatten(parse("x = {x};"), ["x", "z"])


class TestFlattenIntoBoffa:
    def test_atoms_minted_with_labels(self):
        u = Universe()
        ids = flatten_into(parse("atom a; atom b;"), u)
        assert u.is_quine_atom(ids["a"]) and u.is_quine_atom(ids["b"])
        assert ids["a"] != ids["b"]
        assert u.labels[ids["a"]] == "a"

    def test_duplicate_well_founded_content_merges(self):
        u = Universe()
        ids = flatten_into(parse("e = {}; f = {}; s = {e}; t = {f};"), u)
        assert ids["e"] == ids["f"]
        assert ids["s"] == ids["t"]
        u.check_extensionality()

    def test_singleton_of_atom_is_the_atom(self):
        u = Universe()
        ids = flatten_into(parse("atom a; x = {a};"), u)
        assert ids["x"] == ids["a"]

    def test_anonymous_self_singletons_distinct(self):
        u = Universe()
        ids = flatten_into(parse("x = {x}; y = {y};"), u)
        assert ids["x"] != ids["y"]


class TestFlattenIntoGivenIds:
    """Names bound to sets already in the universe."""

    def test_given_quine_atoms_merge(self):
        u = Universe()
        a, b = u.add_quine_atom(), u.add_quine_atom()
        ab = u.add_set([a, b])
        size = len(u)
        ids = flatten_into(parse("x = {a}; y = {{a}, b}; p = <a, b>;"), u, {"a": a, "b": b})
        assert set(ids) == {"x", "y", "p"}
        assert ids["x"] == a and ids["y"] == ab
        assert u.members(ids["p"]) == fs([a, ab])
        assert len(u) == size + 1
        u.check_extensionality()

    def test_given_ill_founded_set(self):
        u = Universe()
        zero = u.add_set([])
        g = make_order_gadget(u, zero, zero)
        before = {i: u.members(i) for i in u._transitive_closure(g)}
        ids = flatten_into(parse("r = <r, g>; s = {g, z};"), u, {"g": g, "z": zero})
        assert decode_pair(u, ids["r"]) == (ids["r"], g)
        assert ids["s"] == u.add_set([g, zero])
        assert flatten_into(parse("t = {z, g};"), u, {"g": g, "z": zero})["t"] == ids["s"]
        assert all(u.members(i) == m for i, m in before.items())
        u.check_extensionality()

    def test_given_names_map_to_one_id(self):
        u = Universe()
        a = u.add_quine_atom()
        ids = flatten_into(parse("x = {b, c};"), u, {"b": a, "c": a})
        assert ids["x"] == a

    FAILING = {
        "undefined name": ("atom t; x = {g, nope};", {}, UndefinedName, "'nope'"),
        "alias cycle": ("atom t; x = y; y = x;", {}, ValueError, "alias cycle"),
        "given name defined": ("atom t; g = {t};", {}, DuplicateDefinition, "'g'"),
        "given name declared": ("atom g; x = {g};", {}, DuplicateDefinition, "'g'"),
        "unknown id": ("atom t; x = {h};", {"h": 999}, ValueError, "999"),
    }

    @pytest.mark.parametrize("case", FAILING)
    def test_failing_call_leaves_store_unchanged(self, case):
        text, extra, exc, message = self.FAILING[case]
        u = Universe()
        a = u.add_quine_atom()
        given = {"g": make_order_gadget(u, a, u.add_set([])), **extra}
        before = (dict(u.sets), dict(u._by_members), u.next_id)
        with pytest.raises(exc, match=message):
            flatten_into(parse(text), u, given)
        assert (u.sets, u._by_members, u.next_id) == before

    @pytest.mark.parametrize("case", BOUND_TWICE)
    def test_name_bound_twice_leaves_store_unchanged(self, case):
        u = Universe()
        u.add_set([u.add_quine_atom()])
        before = (dict(u.sets), dict(u._by_members), u.next_id)
        with pytest.raises(DuplicateDefinition, match="'x'"):
            flatten_into(HslProgram(BOUND_TWICE[case]), u)
        assert (u.sets, u._by_members, u.next_id) == before


class TestUnparse:
    def test_omega(self):
        g = flatten(parse("x = {x};"))["x"]
        assert unparse(g) == "x0 = {x0};\n"

    def test_numeral_sugar(self):
        g = flatten(parse("n = 2;"))["n"]
        assert unparse(g) == "x0 = 2;\n"

    def test_large_numeral_sugar_in_time(self):
        # the numerals inside a sugared numeral are not examined again
        g = flatten(parse("n = 1000;"))["n"]
        start = time.perf_counter()
        assert unparse(g) == "x0 = 1000;\n"
        assert time.perf_counter() - start < 1.0

    def test_pair_sugar_round_trips(self):
        g = flatten(parse("p = <a,b>; a = {}; b = {{}};"))["p"]
        text = unparse(g)
        assert "<" in text
        g2 = flatten(parse(text))["x0"]
        assert pointed_isomorphic(g, g2) is not None

    def test_self_referential_tuple_round_trips(self):
        g = flatten(parse("r = <r, a>; a = {};"))["r"]
        text = unparse(g)
        g2 = flatten(parse(text))["x0"]
        assert pointed_isomorphic(g, g2) is not None

    def test_random_round_trips(self):
        rng = random.Random(404)
        for _ in range(300):
            g = random_apg(rng, 12)
            g2 = flatten(parse(unparse(g)))["x0"]
            assert pointed_isomorphic(g, g2) is not None

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_pair_injectivity_on_numerals(self, i, j):
        prog = f"p = <{i}, {j}>;"
        q = flatten(parse(prog))["p"]
        other = flatten(parse("p = <0, 0>;"))["p"]
        assert equal(q, other, Semantics.AFA) == (i == 0 and j == 0)


class TestPairInjectivity:
    def test_pairs_equal_iff_components_equal(self):
        rng = random.Random(500)
        for _ in range(200):
            graphs = [random_apg(rng, 5) for _ in range(4)]
            texts = [unparse(g) for g in graphs]
            named = []
            for prefix, text in zip("abcd", texts):
                named.append(text.replace("x", prefix))
            prog_ab = f"p = <a0, b0>;\n{named[0]}{named[1]}"
            prog_cd = f"p = <c0, d0>;\n{named[2]}{named[3]}"
            pab = flatten(parse(prog_ab))["p"]
            pcd = flatten(parse(prog_cd))["p"]
            lhs = equal(pab, pcd, Semantics.AFA)
            rhs = equal(graphs[0], graphs[2], Semantics.AFA) and equal(
                graphs[1], graphs[3], Semantics.AFA
            )
            assert lhs == rhs
