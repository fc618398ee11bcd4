import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import hypersets.cli as cli
from hypersets.boffa import Universe
from hypersets.canon import Semantics, equal
from hypersets.cli import (
    EXIT_CAP,
    EXIT_NO_WITNESS,
    EXIT_OK,
    EXIT_SEMANTIC,
    EXIT_SYNTAX,
    EXIT_UNEQUAL,
    main,
)
from hypersets import wflab
from hypersets.grouplab import PRESET_NAMES
from hypersets.hsl import flatten, flatten_into, parse

from oracles import generated_group, small_groups

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def program(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "prog.hs-set"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestSolve:
    def test_unique_quine_atom_afa(self, capsys, program):
        code, out = run(capsys, "solve", program("x = {x}; y = {y};"))
        assert code == EXIT_OK
        assert "equal x y" in out

    def test_boffa_atoms_distinct(self, capsys, program):
        code, out = run(
            capsys, "solve", program("atom x; atom y;"), "--mode", "boffa"
        )
        assert code == EXIT_OK
        assert "distinct x y" in out

    def test_chain_collapses_under_safa(self, capsys, program):
        code, out = run(
            capsys,
            "solve",
            program("a0 = {a1}; a1 = {a2}; a2 = {a0};"),
            "--mode",
            "safa",
        )
        assert code == EXIT_OK
        assert "equal a0 a1" in out and "equal a1 a2" in out

    def test_syntax_error_exit(self, capsys, program):
        assert main(["solve", program("x = {x}")]) == EXIT_SYNTAX

    @pytest.mark.parametrize("text, col", [("x = ²;", 5), ("x = ①;", 5), ("x = 1²;", 6)])
    def test_non_decimal_digits_are_syntax_errors(self, capsys, program, text, col):
        # str.isdigit() accepts these, and int() then refused them
        assert main(["solve", program(text)]) == EXIT_SYNTAX
        assert f"1:{col}: unexpected character {text[col - 1]!r}" in capsys.readouterr().err

    def test_decimal_digits_of_other_scripts_are_numerals(self, capsys, program):
        arabic_indic = run(capsys, "solve", program("x = ٣;"))
        assert arabic_indic == run(capsys, "solve", program("x = 3;"))
        assert arabic_indic[0] == EXIT_OK

    def test_semantic_error_exit(self, capsys, program):
        assert main(["solve", program("atom x;")]) == EXIT_SEMANTIC

    def test_cap_exit(self, capsys, program):
        code = main(
            ["solve", program("a = {b, a}; b = {a};"), "--mode", "fafa", "--cap", "1"]
        )
        assert code == EXIT_CAP

    def test_json_mirrors_text(self, capsys, program):
        path = program("x = {x}; y = {y};")
        code, out = run(capsys, "solve", path, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["sets"]["x"] == "x0 = {x0};\n"
        assert doc["pairs"] == [{"a": "x", "b": "y", "equal": True}]

    def test_dot_output(self, capsys, program, tmp_path):
        dot = tmp_path / "out.dot"
        code, _ = run(capsys, "solve", program("x = {x};"), "--dot", str(dot))
        assert code == EXIT_OK
        assert "digraph x" in dot.read_text()

    def test_deterministic_output(self, capsys, program):
        path = program("a = {b}; b = {a}; c = 3;")
        _, out1 = run(capsys, "solve", path, "--mode", "safa")
        _, out2 = run(capsys, "solve", path, "--mode", "safa")
        assert out1 == out2

    def test_program_file_closed(self, capsys, program, monkeypatch):
        opened = []
        real_open = open

        def spy(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("builtins.open", spy)
        code, _ = run(capsys, "solve", program("x = {x};"))
        assert code == EXIT_OK
        assert opened and all(f.closed for f in opened)

    def test_boffa_output_independent_of_hash_seed(self, program):
        # Set ids must not follow the iteration order of sets of string
        # keys, which changes with PYTHONHASHSEED.
        path = program(
            "n0 = {n2, n2, n5}; n1 = {2, 1}; n2 = {n4}; n3 = {n6, n1}; "
            "n4 = {n3, 2, n1}; n5 = {2, n1}; n6 = {1};"
        )
        outs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run(
                [sys.executable, "-m", "hypersets.cli", "solve", path, "--mode", "boffa"],
                env=env, capture_output=True, text=True, check=True,
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1]


class TestClosedStdout:
    @pytest.mark.parametrize("names", [1, 300])  # 700 kB of verdicts at 300
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exit_two_with_one_line(self, tmp_path, names, unbuffered):
        path = tmp_path / "ring.hs-set"
        path.write_text("".join(f"r{i} = {{r{(i + 1) % names}}};\n" for i in range(names)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before solve writes a byte
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hypersets.cli", "solve", str(path)],
                env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_SEMANTIC, b"error: [Errno 32] Broken pipe\n")


def random_program(rng: random.Random, names: int) -> str:
    """Equations over n0..n{names-1}: sets of names, pairs and numerals."""
    lines = []
    for i in range(names):
        pick = lambda: f"n{rng.randrange(names)}"  # noqa: E731
        kind = rng.random()
        if kind < 0.15:
            term = str(rng.randrange(4))
        elif kind < 0.3:
            term = f"<{pick()}, {pick()}>"
        else:
            term = "{" + ", ".join(pick() for _ in range(rng.randrange(4))) + "}"
        lines.append(f"n{i} = {term};")
    return "\n".join(lines) + "\n"


class TestSolvePairs:
    def test_verdicts_match_pairwise_equal(self, capsys, program):
        rng = random.Random(70)
        for _ in range(30):
            text = random_program(rng, rng.randint(2, 7))
            graphs = flatten(parse(text))
            path = program(text)
            for mode in ("afa", "safa", "fafa"):
                code, out = run(capsys, "solve", path, "--mode", mode, "--json")
                assert code == EXIT_OK
                for pair in json.loads(out)["pairs"]:
                    want = equal(graphs[pair["a"]], graphs[pair["b"]], Semantics(mode))
                    assert pair["equal"] == want, (text, mode, pair)

    def test_afa_eq_exit_codes_match_solve_pairs(self, capsys, program):
        # eq's two roots stop the AFA refinement once they part; solve with
        # pictures refines to the end.
        rng = random.Random(72)
        verdicts = {EXIT_OK: 0, EXIT_UNEQUAL: 0}
        for _ in range(30):
            path = program(random_program(rng, rng.randint(2, 7)))
            code, out = run(capsys, "solve", path, "--mode", "afa", "--json")
            assert code == EXIT_OK
            for pair in json.loads(out)["pairs"]:
                code, out = run(capsys, "eq", path, pair["a"], pair["b"], "--mode", "afa")
                want = (EXIT_OK, "equal") if pair["equal"] else (EXIT_UNEQUAL, "unequal")
                assert (code, out.strip()) == want, (path, pair)
                verdicts[code] += 1
        assert min(verdicts.values()) >= 20, verdicts


class TestEq:
    def test_equal_exit_zero(self, capsys, program):
        path = program("o = {o}; a = {b}; b = {a};")
        code, out = run(capsys, "eq", path, "o", "a", "--mode", "fafa")
        assert code == EXIT_OK and out.strip() == "equal"

    def test_unequal_exit_ten(self, capsys, program):
        path = program("o = {o}; x = {o, x};")
        code, out = run(capsys, "eq", path, "x", "o", "--mode", "safa")
        assert code == EXIT_UNEQUAL and out.strip() == "unequal"

    def test_numeral_vs_literal(self, capsys, program):
        path = program("two = 2; lit = {z, s}; z = {}; s = {z};")
        code, _ = run(capsys, "eq", path, "two", "lit")
        assert code == EXIT_OK

    def test_undefined_name_pure_mode(self, capsys, program):
        path = program("x = {x};")
        assert main(["eq", path, "x", "y", "--mode", "safa"]) == EXIT_SEMANTIC
        assert "name 'y' is not defined" in capsys.readouterr().err

    def test_beyond_isomorphism_cap(self, capsys, program):
        # two 100-name rings with an aperiodic tag word: their canonical
        # forms are larger than the cap, which bounds FAFA only
        ring = lambda p, n: "".join(  # noqa: E731
            f"{p}{i} = {{{p}{(i + 1) % n}, {i % 7}}};" for i in range(n))
        path = program(ring("a", 100) + ring("b", 100))
        for mode in ("afa", "safa"):
            code, out = run(capsys, "eq", path, "a0", "b0", "--mode", mode, "--cap", "64")
            assert (code, out.strip()) == (EXIT_OK, "equal")
        assert main(["eq", path, "a0", "b0", "--mode", "fafa", "--cap", "64"]) == EXIT_CAP


class TestCapValidation:
    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_hs_cap_exits_two(self, capsys, monkeypatch, program, value):
        monkeypatch.setenv("HS_CAP", value)
        with pytest.raises(SystemExit) as exc:
            main(["solve", program("x = {x};")])
        assert exc.value.code == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert "expected an integer >= 1" in err and "Traceback" not in err

    def test_good_hs_cap_is_used(self, monkeypatch, program):
        monkeypatch.setenv("HS_CAP", "1")
        path = program("a = {b, a}; b = {a};")
        assert main(["solve", path, "--mode", "fafa"]) == EXIT_CAP

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("built_under", [None, "1", "abc"])
    def test_hs_cap_read_on_every_call(self, capsys, monkeypatch, program, built_under, reverse):
        # main builds its parser once per process; HS_CAP must not be frozen in it.
        path = program("a = {b, a}; b = {a};")
        want = {None: EXIT_OK, "1": EXIT_CAP, "abc": EXIT_SEMANTIC}
        sequence = [None, "1", "abc", None]
        cli._cached_parser.cache_clear()
        for value in [built_under] + (sequence[::-1] if reverse else sequence):
            if value is None:
                monkeypatch.delenv("HS_CAP", raising=False)
            else:
                monkeypatch.setenv("HS_CAP", value)
            try:
                code = main(["solve", path, "--mode", "fafa"])
            except SystemExit as exc:
                code = exc.code
            assert code == want[value], value
            err = capsys.readouterr().err
            if value == "abc":
                assert err.startswith("usage: hypersets solve")
                assert "argument --cap: expected an integer >= 1, got 'abc'" in err

    @pytest.mark.parametrize("value", ["abc", "0", "1.5"])
    def test_bad_cap_flag_exits_two(self, capsys, program, value):
        with pytest.raises(SystemExit) as exc:
            main(["eq", program("x = {x};"), "x", "x", "--cap", value])
        assert exc.value.code == EXIT_SEMANTIC

    @pytest.mark.parametrize("argv, value", [
        (["search-separation", "afa", "safa", "--max-nodes"], "0"),
        (["search-separation", "afa", "safa", "--budget"], "-1"),
        (["group", "--preset", "v4", "--group-cap"], "0"),
        (["wf", "--atoms", "1", "--levels", "1", "--embed-into"], "-1"),
    ])
    def test_bad_integer_flags_exit_two(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert err.startswith("usage: hypersets") and "expected an integer >=" in err


class TestJsonFlag:
    @pytest.mark.parametrize("argv", [["eq", "PATH", "x", "x"], ["repl"]])
    def test_only_where_read(self, capsys, program, argv):
        argv = [program("x = {x};") if a == "PATH" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--json"])
        assert exc.value.code == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert err.startswith("usage: hypersets") and "unrecognized arguments: --json" in err


class TestAut:
    def test_boffa_doubleton_order_two(self, capsys, program):
        path = program("atom a; atom b; d = {a, b};")
        code, out = run(capsys, "aut", path, "d", "--mode", "boffa")
        assert code == EXIT_OK
        assert "automorphism order 2" in out

    @pytest.mark.parametrize("k", [3, 4])
    def test_cyclic_group_has_one_generator(self, capsys, program, k):
        # r = {c0, ..., c(k-1)}, each ci pointing to the next and to its own
        # atom: the automorphisms rotate the ring, a cyclic group of order k
        lines = [f"atom t{i};" for i in range(k)]
        lines.append("r = {" + ", ".join(f"c{i}" for i in range(k)) + "};")
        lines += [f"c{i} = {{c{(i + 1) % k}, t{i}}};" for i in range(k)]
        code, out = run(capsys, "aut", program("\n".join(lines)), "r", "--mode", "boffa")
        assert code == EXIT_OK
        head, *rest = out.splitlines()
        assert head == f"automorphism order {k}"
        assert len(rest) == 1 and rest[0].startswith("generator ")
        gen = tuple(int(x) for x in rest[0].split()[1:])
        assert len(generated_group([gen], len(gen))) == k

    def test_twelve_atoms(self, capsys, program):
        # 12! automorphisms: the order comes from the stabilizer chain, and
        # no element is listed
        atoms = [f"t{i}" for i in range(12)]
        text = "".join(f"atom {a};" for a in atoms) + "s = {" + ", ".join(atoms) + "};"
        start = time.perf_counter()
        code, out = run(capsys, "aut", program(text), "s", "--mode", "boffa")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        head, *rest = out.splitlines()
        assert head == "automorphism order 479001600"
        u = Universe()
        pic = u.picture_of(flatten_into(parse(text), u)["s"])
        gens = [tuple(int(x) for x in line.removeprefix("generator ").split()) for line in rest]
        assert len(gens) == 11
        for p in gens:
            assert sorted(p) == list(range(pic.node_count))
            assert all(frozenset(p[v] for v in kids) == pic.children[p[u]]
                       for u, kids in enumerate(pic.children))

    def test_long_chain(self, capsys, program):
        # 2,401 nodes: the colour refinement that seeds the search must not
        # take one round per level
        n = 2401
        path = program("".join(f"a{i} = {{a{i + 1}}};" for i in range(n - 1)) + f"a{n - 1} = {{}};")
        code, out = run(capsys, "aut", path, "a0", "--cap", "5000")
        assert code == EXIT_OK
        assert "automorphism order 1" in out


class TestBoundedInputs:
    @pytest.mark.parametrize("mode, want", [
        ("afa", EXIT_OK), ("safa", EXIT_OK), ("boffa", EXIT_OK), ("fafa", EXIT_CAP),
    ])
    def test_deep_nesting(self, program, mode, want):
        # 5,000 nested braces: parsing and flattening must not recurse per
        # level, and SAFA refinement must not take one round per level
        path = program("x = " + "{" * 5000 + "}" * 5000 + ";")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "hypersets.cli", "solve", path, "--mode", mode],
            env=env, capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 2.0
        assert done.returncode == want, done.stderr
        assert "Traceback" not in done.stderr

    def test_huge_numeral_hits_flatten_budget(self, capsys, program):
        # numeral k desugars to k(k+1)/2 edges
        start = time.perf_counter()
        code = main(["solve", program("x = 100000;")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAP
        assert capsys.readouterr().err == (
            "size cap: numeral 100000 takes the desugared graph past 1000000 edges\n")


class TestWf:
    def test_report(self, capsys):
        code, out = run(capsys, "wf", "--atoms", "2", "--levels", "2")
        assert code == EXIT_OK
        assert "level sizes 2 4 16" in out
        assert "automorphism count 2" in out

    def test_eight_atoms(self, capsys):
        # 256 top-level elements and 8! automorphisms, none of them listed
        start = time.perf_counter()
        code, out = run(capsys, "wf", "--atoms", "8", "--levels", "1")
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "automorphism count 40320"

    def test_perm(self, capsys):
        code, out = run(capsys, "wf", "--atoms", "2", "--levels", "2", "--perm", "(0 1)")
        assert code == EXIT_OK
        assert "verdict automorphism" in out
        assert "fixed points 8" in out

    def test_embed(self, capsys):
        code, out = run(
            capsys, "wf", "--atoms", "2", "--levels", "2", "--embed-into", "3"
        )
        assert code == EXIT_OK
        assert "verdict proper-embedding" in out

    @pytest.mark.parametrize("argv, code, message", [
        pytest.param(["--atoms", "3", "--levels", "3"], EXIT_CAP,
                     "size cap: level 3 would hold 2^256 elements (cap 65536)\n",
                     id="3-atoms-3-levels"),
        # 4 atoms x 2 levels and 0 atoms x 5 levels each hold exactly 2^16 elements
        pytest.param(["--atoms", "4", "--levels", "2", "--perm", "(0 1)"], EXIT_OK,
                     "fixed points 4096\n", id="4-atoms-2-levels-perm"),
        pytest.param(["--atoms", "0", "--levels", "5"], EXIT_CAP,
                     "size cap: automorphism search capped at 512 elements\n",
                     id="0-atoms-5-levels"),
        pytest.param(["--atoms", "5", "--levels", "2"], EXIT_CAP,
                     "size cap: level 2 would hold 2^32 elements (cap 65536)\n",
                     id="5-atoms-2-levels"),
    ])
    def test_cap_exit(self, capsys, argv, code, message):
        assert main(["wf", *argv]) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert out.endswith(message) and err == ""
        else:
            assert (out, err) == ("", message)

    # Every refused shape of 0-5 atoms and 0-5 levels, by its stderr; the
    # rest exit 0.  Stage k holds 2^(size of stage k - 1) elements.
    AUTOMORPHISM_CAP = "size cap: automorphism search capped at 512 elements\n"
    REFUSED = {
        (0, 5): AUTOMORPHISM_CAP,  # 65,536 elements
        (1, 4): AUTOMORPHISM_CAP,
        (1, 5): "size cap: level 5 would hold 2^65536 elements (cap 65536)\n",
        (2, 3): AUTOMORPHISM_CAP,
        **{(2, n): "size cap: level 4 would hold 2^65536 elements (cap 65536)\n"
           for n in (4, 5)},
        **{(3, n): "size cap: level 3 would hold 2^256 elements (cap 65536)\n"
           for n in (3, 4, 5)},
        (4, 2): AUTOMORPHISM_CAP,
        **{(4, n): "size cap: level 3 would hold 2^65536 elements (cap 65536)\n"
           for n in (3, 4, 5)},
        **{(5, n): "size cap: level 2 would hold 2^32 elements (cap 65536)\n"
           for n in (2, 3, 4, 5)},
    }

    @pytest.mark.parametrize("atoms, levels", itertools.product(range(6), range(6)),
                             ids=lambda n: str(n))
    def test_shape_exits(self, monkeypatch, capsys, atoms, levels):
        """A refused shape is refused before any universe is built."""
        built = []
        real = wflab.LevelledUniverse
        monkeypatch.setattr(wflab, "LevelledUniverse", lambda **kw: built.append(kw) or real(**kw))
        code = main(["wf", "--atoms", str(atoms), "--levels", str(levels)])
        err = capsys.readouterr().err
        if (atoms, levels) in self.REFUSED:
            assert (code, err) == (EXIT_CAP, self.REFUSED[atoms, levels])
            assert built == []
        else:
            assert (code, err, len(built)) == (EXIT_OK, "", 1)

    @pytest.mark.parametrize("perm", ["(0 1)(0 1)", "(0 0)", "(2 2)", "(0 1 0)", "(0 1)(1 2)"])
    def test_cycles_must_be_disjoint(self, capsys, perm):
        # (0 1)(0 1) was read as the transposition, not as the identity
        assert main(["wf", "--atoms", "3", "--levels", "1", "--perm", perm]) == EXIT_SEMANTIC
        assert capsys.readouterr().err == (
            f"error: bad cycle notation {perm!r}: cycles must be disjoint\n")

    @pytest.mark.parametrize("perm", ["(0 1) (2 3)", " (0 1)\t(2 3) "])
    def test_space_between_cycles(self, capsys, perm):
        code, out = run(capsys, "wf", "--atoms", "4", "--levels", "1", "--perm", perm)
        assert code == EXIT_OK
        assert "verdict automorphism" in out
        assert "fixed points 4" in out  # the unions of the orbits {0, 1} and {2, 3}

    @pytest.mark.parametrize("perm", ["(0 1)x(2 3)", "(a b)", "((0 1)", "(0 1))"])
    def test_bad_cycle_notation(self, capsys, perm):
        # these exited 2 with int()'s message about a stray token
        assert main(["wf", "--atoms", "4", "--levels", "1", "--perm", perm]) == EXIT_SEMANTIC
        assert capsys.readouterr().err == f"error: bad cycle notation {perm!r}\n"

    def test_bad_perm_is_refused_before_any_stage_is_built(self, monkeypatch, capsys):
        # the 65,536-set stage was built first, and only then was "(0 1" read
        built = []
        monkeypatch.setattr(cli, "build_universe", lambda *a, **kw: built.append(a))
        assert main(["wf", "--atoms", "4", "--levels", "2", "--perm", "(0 1"]) == EXIT_SEMANTIC
        assert capsys.readouterr().err == "error: bad cycle notation '(0 1'\n"
        assert built == []

    def test_embed_into_equal_stage_builds_it_once(self, monkeypatch, capsys):
        # an equal target is the source's own stage, so one stage is built
        built = []
        real = cli.build_universe
        monkeypatch.setattr(cli, "build_universe", lambda *a, **kw: built.append(a) or real(*a, **kw))
        code, out = run(capsys, "wf", "--atoms", "2", "--levels", "1", "--embed-into", "2")
        assert (code, built) == (EXIT_OK, [(2, 1)])
        assert out == (DOCS / "golden" / "wf-atoms2-levels1-embed2.txt").read_text(encoding="utf-8")

    def test_perm_and_embed_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wf", "--atoms", "2", "--levels", "1", "--perm", "(0 1)", "--embed-into", "3"])
        assert exc.value.code == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert err.startswith("usage: hypersets wf")
        assert "argument --embed-into: not allowed with argument --perm" in err

    @pytest.mark.parametrize("flag", ["--atoms", "--levels"])
    def test_negative_counts_rejected(self, capsys, flag):
        argv = {"--atoms": "1", "--levels": "1"}
        argv[flag] = "-1"
        with pytest.raises(SystemExit) as exc:
            main(["wf", *(x for kv in argv.items() for x in kv)])
        assert exc.value.code == EXIT_SEMANTIC
        assert "expected an integer >= 0" in capsys.readouterr().err


class TestGroup:
    def test_preset_v4(self, capsys):
        code, out = run(capsys, "group", "--preset", "v4")
        assert code == EXIT_OK
        assert "automorphism count 4" in out
        assert "isomorphic to input True" in out

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
        code, out = run(capsys, "group", "--table", str(path))
        assert code == EXIT_OK
        assert "automorphism count 2" in out

    def test_table_file_order_eight(self, tmp_path):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps({"order": 8, "table": small_groups()["q8"]}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "hypersets.cli", "group", "--table", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 1.0
        assert done.returncode == EXIT_OK, done.stderr
        assert "automorphism count 8" in done.stdout

    @pytest.mark.parametrize("moduli", [
        (13,), (16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2), (2, 3, 3),
    ], ids=lambda moduli: "x".join(f"z{m}" for m in moduli))
    def test_orders_above_twelve(self, tmp_path, moduli):
        # Z_m1 x ... x Z_mk on mixed-radix digits.  Aut(A_G) = G was found
        # and verified, and then the old order-12 cap of the group-table
        # isomorphism check exited 3.
        elements = list(itertools.product(*map(range, moduli)))
        index = {x: i for i, x in enumerate(elements)}
        table = [[index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in elements]
                 for x in elements]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"order": len(table), "table": table}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "hypersets.cli", "group", "--table", str(path),
             "--group-cap", "64", "--cap", "100000"],
            env=env, capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 2.0
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.splitlines()[1:3] == [
            f"automorphism count {len(table)}", "isomorphic to input True"]

    def test_group_cap(self, capsys, tmp_path):
        path = tmp_path / "z9.json"
        table = [[(i + j) % 9 for j in range(9)] for i in range(9)]
        path.write_text(json.dumps({"order": 9, "table": table}))
        assert main(["group", "--table", str(path)]) == EXIT_CAP

    @pytest.mark.parametrize("text", [
        pytest.param(json.dumps({"order": 2}), id="no-table"),
        pytest.param(json.dumps([[0, 1], [1, 0]]), id="top-level-list"),
        pytest.param(json.dumps({"order": 2, "table": [[0], [1, 0]]}), id="ragged"),
        pytest.param(json.dumps({"order": 0, "table": []}), id="empty"),
        pytest.param(json.dumps({"order": 2, "table": [["0", "1"], ["1", "0"]]}), id="strings"),
        pytest.param(json.dumps({"order": 2, "table": [[0, 1], [1, "x"]]}), id="one-string"),
        pytest.param(json.dumps({"order": 1, "table": [[0.0]]}), id="float"),
        pytest.param(json.dumps({"order": True, "table": [[0]]}), id="bool-order"),
        pytest.param(json.dumps({"order": 2.0, "table": [[0, 1], [1, 0]]}), id="float-order"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
    ])
    def test_malformed_table_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["group", "--table", str(path)]) == EXIT_SEMANTIC
        assert capsys.readouterr().err.startswith("error: ")

    def test_group_cap_checked_before_table(self, tmp_path):
        path = tmp_path / "z400.json"
        table = [[(i + j) % 400 for j in range(400)] for i in range(400)]
        path.write_text(json.dumps({"order": 400, "table": table}))
        start = time.perf_counter()
        assert main(["group", "--table", str(path)]) == EXIT_CAP
        assert time.perf_counter() - start < 1.0

    def test_group_cap_checked_before_rows(self, capsys, tmp_path):
        # Only the document is checked before the cap; rows are the table's.
        path = tmp_path / "bad9.json"
        path.write_text(json.dumps({"order": 9, "table": [["x"]] * 9}))
        assert main(["group", "--table", str(path)]) == EXIT_CAP
        assert capsys.readouterr().err == "size cap: group order 9 exceeds cap 8\n"


class TestCachedParser:
    """main reuses one parser per process; a fresh parser per call must give
    the same stdout, stderr and exit code."""

    VECTORS = [
        ["solve", "PATH"],
        ["solve", "PATH", "--mode", "boffa", "--json"],
        ["eq", "PATH", "x", "y", "--mode", "safa"],
        ["aut", "PATH", "d"],
        ["wf", "--atoms", "2", "--levels", "1", "--perm", "(0 1)"],
        ["group", "--preset", "s3"],
        ["search-separation", "afa", "safa", "--max-nodes", "4", "--budget", "50"],
        ["repl", "--mode", "boffa"],
        ["--help"],
        *([command, "--help"] for command in
          ["solve", "eq", "aut", "wf", "group", "search-separation", "repl"]),
        ["frobnicate"],
        ["eq", "PATH", "x"],
        ["group", "--preset", "s3", "--table", "f"],
        ["solve", "PATH", "--mode", "zfc"],
    ]

    def call(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO("e = {};\n:aut e\n:canon e\n"))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", VECTORS, ids=" ".join)
    def test_same_output_as_fresh_parser(self, capsys, monkeypatch, program, argv):
        path = program("x = {x}; y = {{y}}; d = {x, {}, {{}}};")
        argv = [path if a == "PATH" else a for a in argv]
        cached = [self.call(capsys, monkeypatch, argv) for _ in range(2)]
        monkeypatch.setattr(cli, "_cached_parser", cli._cached_parser.__wrapped__)
        fresh = [self.call(capsys, monkeypatch, argv) for _ in range(2)]
        assert cached == fresh
        assert cached[0] == cached[1]


# What search-separation prints at --seed 0 and its default budget and size.
SEPARATION_AFA_NOT_MULTISET = """\
# witness at trial 2: afa says True, safa says False
# graph A
x0 = {x0};
# graph B
y0 = {y1, y2, y3};
y1 = {y0, y1};
y2 = {y1};
y3 = {y0, y1, y3};
"""
SEPARATION_SAFA_FAFA = """\
# witness at trial 44: safa says True, fafa says False
# graph A
x0 = {x1};
x1 = {x2, x3};
x2 = {x2};
x3 = {x2};
# graph B
y0 = {y1, y2};
y1 = {y3};
y2 = {y2};
y3 = {y1};
"""


class TestSearchSeparation:
    def test_finds_afa_safa_witness(self, capsys):
        code, out = run(
            capsys,
            "search-separation", "afa", "safa",
            "--max-nodes", "6", "--seed", "1", "--budget", "10000",
        )
        assert code == EXIT_OK
        assert "witness" in out

    def test_same_modes_rejected(self, capsys):
        assert main(["search-separation", "afa", "afa"]) == EXIT_SEMANTIC

    @pytest.mark.parametrize("max_nodes, cap", [
        ("1000000", []), ("100000000", []), ("9", ["--cap", "8"]),
    ])
    def test_max_nodes_bounded_by_cap(self, capsys, max_nodes, cap):
        # random_apg draws up to max_nodes nodes before any cap is checked
        argv = ["search-separation", "afa", "safa", "--max-nodes", max_nodes, "--budget", "1"]
        start = time.perf_counter()
        code = main(argv + cap)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAP
        assert capsys.readouterr().err.startswith(f"size cap: --max-nodes {max_nodes} exceeds")

    def test_no_witness_exit(self, capsys):
        code, out = run(
            capsys,
            "search-separation", "safa", "fafa",
            "--max-nodes", "4", "--seed", "0", "--budget", "50",
        )
        assert code in (EXIT_OK, EXIT_NO_WITNESS)

    def test_no_witness_exit_is_reached(self, capsys):
        # One node gives Omega or the empty set, which no two modes tell apart.
        code, out = run(
            capsys,
            "search-separation", "afa", "safa",
            "--max-nodes", "1", "--seed", "0", "--budget", "50",
        )
        assert (code, out) == (EXIT_NO_WITNESS, "no witness within budget 50\n")

    @pytest.mark.parametrize("modes, want", [
        (("afa", "safa"), SEPARATION_AFA_NOT_MULTISET),
        (("safa", "fafa"), SEPARATION_SAFA_FAFA),
        (("afa", "fafa"), SEPARATION_AFA_NOT_MULTISET.replace("safa says False", "fafa says False")),
    ])
    def test_witnesses_at_seed_zero(self, capsys, modes, want):
        assert run(capsys, "search-separation", *modes, "--seed", "0") == (EXIT_OK, want)

    def test_deterministic_for_seed(self, capsys):
        args = ["search-separation", "afa", "fafa", "--max-nodes", "5",
                "--seed", "9", "--budget", "3000"]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert (code1, out1) == (code2, out2)


class TestRepl:
    def run_script(self, capsys, monkeypatch, script: str, mode: str = "afa"):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        code = main(["repl", "--mode", mode])
        assert code == EXIT_OK
        return capsys.readouterr().out

    def test_eq_after_definitions(self, capsys, monkeypatch):
        out = self.run_script(capsys, monkeypatch, "x = {x};\ny = {y};\n:eq x y\n:quit\n")
        assert "equal" in out

    def test_boffa_doubleton_order(self, capsys, monkeypatch):
        out = self.run_script(
            capsys, monkeypatch,
            "atom a;\natom b;\nd = {a, b};\n:aut d\n:quit\n",
            mode="boffa",
        )
        assert "order 2" in out

    def test_rigid_numeral(self, capsys, monkeypatch):
        out = self.run_script(capsys, monkeypatch, "n = 3;\n:rigid n\n:quit\n")
        assert "rigid" in out

    def test_errors_do_not_kill_session(self, capsys, monkeypatch):
        out = self.run_script(
            capsys, monkeypatch,
            "x = {undefined_name};\n:eq nope nope\nx = {x};\n:rigid x\n:quit\n",
        )
        assert "error" in out
        assert "rigid" in out

    def test_wrong_operand_count_prints_usage(self, capsys, monkeypatch):
        out = self.run_script(
            capsys, monkeypatch,
            "x = {x};\n:eq x\n:canon\n:mode\n:picture x\n:rigid x\n:quit\n",
        )
        assert out.splitlines() == [
            "usage: :eq A B",
            "usage: :canon A",
            "usage: :mode M",
            "usage: :picture A FILE",
            "rigid",
        ]

    def test_unwritable_picture_path_keeps_session(self, capsys, monkeypatch, tmp_path):
        bad = tmp_path / "missing" / "x.dot"
        out = self.run_script(
            capsys, monkeypatch, f"x = {{x}};\n:picture x {bad}\n:canon x\n:quit\n"
        )
        assert out.startswith("error: ") and out.endswith("x0 = {x0};\n")

    @pytest.mark.parametrize("mode", ["afa", "safa", "fafa", "boffa"])
    def test_only_picture_readers_build_the_picture(self, capsys, monkeypatch, tmp_path, mode):
        # :canon prints from the solution's member sets; only :aut, :rigid
        # and :picture read an Apg picture, once each.  Counted, not timed.
        calls = []
        picture = cli._Solution.picture

        def counted(sol, name):
            calls.append(name)
            return picture(sol, name)

        monkeypatch.setattr(cli._Solution, "picture", counted)
        program = "x = {x, {}};\n"
        out = self.run_script(capsys, monkeypatch, program + ":canon x\n:quit\n", mode)
        assert "error" not in out and calls == []
        dot = tmp_path / "x.dot"
        out = self.run_script(capsys, monkeypatch, program + f":aut x\n:rigid x\n:picture x {dot}\n", mode)
        assert out.splitlines() == ["order 1", "rigid", f"wrote {dot}"]
        assert calls == ["x"] * 3

    def test_unknown_directive(self, capsys, monkeypatch):
        out = self.run_script(capsys, monkeypatch, ":eqq x y\n:quit\n")
        assert out == "unknown directive :eqq\n"

    def test_mode_switch(self, capsys, monkeypatch):
        out = self.run_script(
            capsys, monkeypatch,
            "x = {x};\ny = {y};\n:eq x y\n:mode boffa\n:eq x y\n:quit\n",
        )
        assert "equal" in out and "unequal" in out


class TestDocsCorpus:
    def test_goldens(self, capsys):
        examples = sorted((DOCS / "examples").glob("*.hs-set"))
        assert examples, "docs corpus missing"
        for path in examples:
            stem, mode, _ = path.name.split(".")
            code, out = run(capsys, "solve", str(path), "--mode", mode)
            assert code == EXIT_OK, path
            want = (DOCS / "golden" / f"{stem}.{mode}.txt").read_text(encoding="utf-8")
            assert out == want, f"golden drift for {path.name}"

    def test_aut_goldens(self, capsys):
        # aut on each example's first name in its own mode.  Where the group
        # is not trivial (quine-many, atom-graph) the golden pins the
        # generators, and so the order in which the search finds its leaves.
        examples = sorted((DOCS / "examples").glob("*.hs-set"))
        goldens = sorted((DOCS / "golden").glob("aut-*.txt"))
        assert [p.name for p in goldens] == [f"aut-{p.name.removesuffix('.hs-set')}.txt" for p in examples]
        for path, golden in zip(examples, goldens):
            first = parse(path.read_text(encoding="utf-8")).defined_names[0]
            code, out = run(capsys, "aut", str(path), first, "--mode", path.name.split(".")[1])
            assert code == EXIT_OK, path
            assert out == golden.read_text(encoding="utf-8"), f"golden drift for {golden.name}"

    def test_group_goldens(self, capsys):
        goldens = sorted((DOCS / "golden").glob("group-*.json"))
        assert len(goldens) == len(PRESET_NAMES)
        for path in goldens:
            preset = path.stem.removeprefix("group-")
            code, out = run(capsys, "group", "--preset", preset, "--json")
            assert code == EXIT_OK, path
            assert out == path.read_text(encoding="utf-8"), f"golden drift for {path.name}"

    WF_GOLDENS = {
        "wf-atoms3-levels2.txt": ["--atoms", "3", "--levels", "2"],
        "wf-atoms3-levels2-perm012.txt": ["--atoms", "3", "--levels", "2", "--perm", "(0 1 2)"],
        "wf-atoms2-levels2-embed3.json":
            ["--atoms", "2", "--levels", "2", "--embed-into", "3", "--json"],
        "wf-atoms2-levels1-embed2.txt": ["--atoms", "2", "--levels", "1", "--embed-into", "2"],
    }

    def test_wf_goldens(self, capsys):
        goldens = sorted((DOCS / "golden").glob("wf-*"))
        assert [p.name for p in goldens] == sorted(self.WF_GOLDENS)
        for path in goldens:
            code, out = run(capsys, "wf", *self.WF_GOLDENS[path.name])
            assert code == EXIT_OK, path
            assert out == path.read_text(encoding="utf-8"), f"golden drift for {path.name}"
