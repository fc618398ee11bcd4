import contextlib
import io
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hypersets.apg import Apg, is_well_founded, pointed_isomorphic, rank_map
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
from hypersets.cli import main
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


# Every kind of front-end error, with its exact type and message.  Columns
# count characters after the last "\n" (tab, CR, "\x0b", "\x1c", "\x85" and
# "\u2028" take one each), the end of input stops before a comment on the
# last line, and the first lexical error in the text beats any later syntax
# error and any duplicate definition.
ERRORS = [
    ("x = {x}\ny = {};", HslSyntaxError, "2:1: expected ';', found 'y'"),
    ("x = <a, b>\r\ny", HslSyntaxError, "2:1: expected ';', found 'y'"),
    ("x = $;", HslSyntaxError, "1:5: unexpected character '$'"),
    ("x = {a b};", HslSyntaxError, "1:8: expected '}', found 'b'"),
    ("p = <a>; a = {};", HslSyntaxError, "1:5: tuples need at least two components"),
    ("x = <<a, b>>;", HslSyntaxError, "1:5: tuples need at least two components"),
    ("x = {", HslSyntaxError, "1:6: expected a term, found end of input"),
    ("x = {}", HslSyntaxError, "1:7: expected ';', found end of input"),
    ("x = {}  # no semicolon", HslSyntaxError, "1:9: expected ';', found end of input"),
    ("x = {}\t# tab, then a comment", HslSyntaxError, "1:8: expected ';', found end of input"),
    ("x = {} # c\n", HslSyntaxError, "2:1: expected ';', found end of input"),
    ("x = {a}\n\n  # note", HslSyntaxError, "3:3: expected ';', found end of input"),
    ("= x;", HslSyntaxError, "1:1: expected a definition or atom declaration"),
    (";", HslSyntaxError, "1:1: expected a definition or atom declaration"),
    ("9y = {};", HslSyntaxError, "1:1: expected a definition or atom declaration"),
    ("atom = {};", HslSyntaxError, "1:6: expected 'NAME', found '='"),
    ("atom atom;", HslSyntaxError, "1:6: expected 'NAME', found 'atom'"),
    ("x = {atom};", HslSyntaxError, "1:6: expected a term, found 'atom'"),
    ("atom a", HslSyntaxError, "1:7: expected ';', found end of input"),
    ("atom 5;", HslSyntaxError, "1:6: expected 'NAME', found 5"),
    ("x y;", HslSyntaxError, "1:3: expected '=', found 'y'"),
    ("x = y z;", HslSyntaxError, "1:7: expected ';', found 'z'"),
    ("x = <a, b;", HslSyntaxError, "1:10: expected '>', found ';'"),
    ("x = <a, b};", HslSyntaxError, "1:10: expected '>', found '}'"),
    ("x = {a>;", HslSyntaxError, "1:7: expected '}', found '>'"),
    ("x = {a,};", HslSyntaxError, "1:8: expected a term, found '}'"),
    ("x\t=\t{,};", HslSyntaxError, "1:6: expected a term, found ','"),
    ("x =\r\n{y,;", HslSyntaxError, "2:4: expected a term, found ';'"),
    ("x = \x0b{$};", HslSyntaxError, "1:7: unexpected character '$'"),
    ("x = \x1c{};\x0c\x85y = %;", HslSyntaxError, "1:15: unexpected character '%'"),
    ("x = {\x1c\x1d\x1e\x1f\x85$};", HslSyntaxError, "1:11: unexpected character '$'"),
    ("x = {}\u2028; y = {\u2028};\u2028z", HslSyntaxError, "1:20: expected '=', found end of input"),
    ("x = ²;", HslSyntaxError, "1:5: unexpected character '²'"),
    ("x² = {}; y = {x² ²};", HslSyntaxError, "1:18: unexpected character '²'"),
    ("x = ٣; y = {x, ٣ ٤};", HslSyntaxError, "1:18: expected '}', found 4"),
    ("x = {007 y};", HslSyntaxError, "1:10: expected '}', found 'y'"),
    ("x = {a 007};", HslSyntaxError, "1:8: expected '}', found 7"),
    ("\ufeffx = {};", HslSyntaxError, "1:1: unexpected character '\\ufeff'"),
    ("x = {}; x = {x};", DuplicateDefinition, "name 'x' defined twice"),
    ("atom x; x = {};", DuplicateDefinition, "name 'x' defined twice"),
    ("x = {}; x = {x}; $", HslSyntaxError, "1:18: unexpected character '$'"),
    ("x = {; y = $;", HslSyntaxError, "1:12: unexpected character '$'"),
    ("x = {}; y = {x} z = @;", HslSyntaxError, "1:21: unexpected character '@'"),
]


class TestFrontEnd:
    @pytest.mark.parametrize("text, exc, message", ERRORS)
    def test_error_kind_and_position(self, text, exc, message):
        with pytest.raises(exc) as err:
            parse(text)
        assert type(err.value) is exc and str(err.value) == message

    @pytest.mark.parametrize("rest, first", [
        ("y = {; z = $;", "long"),  # the numeral comes first in the text
        ("y = $;", "long"),
    ])
    def test_numeral_past_the_int_digit_limit_raises_in_text_order(self, rest, first):
        long = "1" * 5000
        try:
            int(long)
        except ValueError as exc:
            want = (ValueError, str(exc))
        else:  # no digit limit in this interpreter: the next error shows
            want = (HslSyntaxError, "1:5011: " + ("expected a term, found ';'" if "{" in rest
                                                  else "unexpected character '$'"))
        with pytest.raises(want[0]) as err:
            parse(f"x = {long}; {rest}")
        assert str(err.value) == want[1]
        with pytest.raises(HslSyntaxError, match="unexpected character '\\$'"):
            parse(f"x = $; y = {long};")

    DEPTH = 5000

    @pytest.mark.parametrize("nest", [
        "<" * DEPTH + "a, b" + ">, b" * (DEPTH - 1) + ">",
        "{<" * DEPTH + "a" + ", b>}" * DEPTH,
    ])
    def test_deep_nesting_needs_no_recursion(self, nest):
        program = parse(f"x = {nest}; a = {{}}; b = {{a}};")
        g = flatten(program)["x"]
        assert g.node_count > 3 * self.DEPTH
        ids = flatten_into(program, Universe())
        assert len(set(ids.values())) == 3

    def test_long_alias_chain_in_linear_time(self, tmp_path):
        n = 20_000
        text = "".join(f"a{i} = a{i + 1};\n" for i in range(n)) + f"a{n} = {{}};\n"
        program = parse(text)
        start = time.perf_counter()
        graphs = flatten(program)
        assert time.perf_counter() - start < 1.0
        assert graphs["a0"] == graphs[f"a{n}"]
        start = time.perf_counter()
        assert len(set(flatten_into(program, Universe()).values())) == 1
        assert time.perf_counter() - start < 1.0
        path = tmp_path / "chain.hs-set"
        path.write_text(text)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            assert main(["eq", str(path), "a0", f"a{n}"]) == 0
        assert time.perf_counter() - start < 1.0
        assert out.getvalue() == "equal\n"


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

    def test_numerals_share_one_chain(self):
        # 0..3 once, where a chain per literal would hold 3 + 4 + 4 + 2 + 1 keys
        children, _ = hsl._pure_graph(parse("x = {2, 3}; y = 3; z = <1, 0>;"))
        assert sum(k[0] == "num" for k in children) == 4

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
        with pytest.raises(ValueError, match="^alias cycle a -> b -> c -> b has no unique solution$"):
            flatten(parse("a = b; b = c; c = b;"))

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
        assert u.members(ids["a"]) == {ids["a"]} and u.members(ids["b"]) == {ids["b"]}
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

    def test_repeated_numeral_needs_no_merge(self, monkeypatch):
        merged = []
        merge = hsl._merge_duplicates

        def counted(children):
            rep = merge(children)
            merged.extend(k for k, r in rep.items() if r != k)
            return rep

        monkeypatch.setattr(hsl, "_merge_duplicates", counted)
        ids = flatten_into(parse("x = 300; y = 300;"), Universe())
        assert merged == [] and ids["x"] == ids["y"]

    def test_set_ids_pinned(self):
        """Numerals growing and repeated, sets, pairs, atoms and given names:
        how the program's graph is shared must not renumber the store."""
        u = Universe()
        first = flatten_into(parse(
            "atom a; x = 2; y = {5, 2, a}; z = <3, 5>; w = {{}, 1, 5}; v = 7; q = {x, 0};"), u)
        assert first == {"x": 3, "y": 7, "z": 10, "w": 11, "v": 13, "q": 14, "a": 0}
        second = flatten_into(parse("p = <g, 4>; r = {3, h, 9}; s = {g, 2, s}; t = 9; e = {};"),
                              u, {"g": first["y"], "h": first["a"]})
        assert second == {"p": 17, "r": 20, "s": 21, "t": 19, "e": 1}
        third = flatten_into(parse("atom b; m = {b, 6, <1, b>}; n = {m, 6, 3}; o = 6;"),
                             u, {"c": second["s"]})
        assert third == {"m": 26, "n": 27, "o": 12, "b": 22}
        assert len(u) == 28
        # ill-founded sets are minted in the order of their keys, which a
        # pair of two equal numeral literals must not shift
        ids = flatten_into(parse("d = <0, 0>; z = {0}; f = {f}; g = {g, f}; h = {h, g};"),
                           Universe())
        assert ids == {"d": 2, "z": 1, "f": 4, "g": 5, "h": 3}


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
        g = flatten_into(parse("g = <g, a, b>;"), u, {"a": zero, "b": zero})["g"]
        before = {i: u.members(i) for i in u._transitive_closure(g)}
        ids = flatten_into(parse("r = <r, g>; s = {g, z};"), u, {"g": g, "z": zero})
        assert hsl._pair_parts(ids["r"], u.members)[:2] == (ids["r"], g)
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
        g = flatten_into(parse("g = <g, a, b>;"), u, {"a": a, "b": u.add_set([])})["g"]
        given = {"g": g, **extra}
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

    def test_one_numeral_sugared_per_picture(self):
        # a program's numerals share one chain, so a second numeral is spelled out
        for g, text in [
            (Apg((fs([1, 4]), fs([2, 3]), fs(), fs([2]), fs([5]), fs()), 0),
             "x0 = {x1, x2};\nx1 = 2;\nx2 = {x5};\nx5 = {};\n"),
            (Apg((fs([1, 2]), fs(), fs()), 0), "x0 = {x1, x2};\nx1 = 0;\nx2 = {};\n"),
        ]:
            assert unparse(g) == text
            assert pointed_isomorphic(flatten(parse(text))["x0"], g) is not None

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
