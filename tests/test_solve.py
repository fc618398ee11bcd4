"""``solve`` reads every picture off one settled graph and prints it with
one shared printer.

The differential tests hold it to the per-name path it replaced (kept in
``oracles``): each name trimmed and canonicalized on its own, Boffa
pictures read by ``Universe.picture_of``, and the old ``unparse``.  The
complexity tests count calls instead of timing them, and the memory test
measures the peak of ``solve`` on a ring whose verdicts alone fill 8 MB.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from hypersets import apg, boffa, canon, cli, equivalence, hsl
from hypersets.apg import Apg, Partition
from hypersets.canon import automorphisms, to_dot
from hypersets.cli import _solve_names, main
from hypersets.hsl import flatten, parse, unparse
from hypersets.random_graphs import random_apg

from oracles import (reference_merge_duplicates, reference_solve_names, reference_solve_output,
                     reference_unparse)

def random_program(rng: random.Random, atoms: bool, max_names: int, max_depth: int,
                   twins: bool = False) -> str:
    """Definitions of n0.. over sets, tuples, numerals, aliases and atoms.

    A name may alias an earlier one, be bound to a numeral that other terms
    share, or repeat an earlier right-hand side, and terms repeat their own
    members: repeated structure is what takes SAFA more than one round.
    Terms name any definition, so the graphs are often cyclic.  With
    ``twins``, half the programs also bind d0 and d1 to one nested set
    term: merging its copies cascades past the literal duplicates.
    """
    names = [f"n{i}" for i in range(rng.randint(1, max_names))]
    decls = [f"t{i}" for i in range(rng.randint(0, 3))] if atoms else []
    refs = names + decls

    def term(depth: int) -> str:
        r = rng.random()
        if depth and (depth >= max_depth or r < 0.3):  # a bare name on top is an alias
            return rng.choice(refs) if rng.random() < 0.6 else str(rng.randint(0, 4))
        if r < 0.75:
            elems = [term(depth + 1) for _ in range(rng.randint(0, 3))]
            if elems and rng.random() < 0.3:
                elems.append(rng.choice(elems))
            return "{" + ", ".join(elems) + "}"
        return "<" + ", ".join(term(depth + 1) for _ in range(rng.randint(2, 3))) + ">"

    rhs: list[str] = []
    for i in range(len(names)):
        r = rng.random()
        if i and r < 0.15:
            rhs.append(rng.choice(names[:i]))  # aliases point back: no alias cycles
        elif i and r < 0.3:
            rhs.append(rng.choice(rhs))
        elif r < 0.4:
            rhs.append(str(rng.randint(0, 5)))
        else:
            rhs.append(term(0))
    lines = [f"{n} = {t};" for n, t in zip(names, rhs)] + [f"atom {a};" for a in decls]
    if twins and rng.random() < 0.5:
        twin = "{{" + term(max_depth) + "}, " + term(1) + "}"
        lines += [f"d0 = {twin};", f"d1 = {twin};"]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def partition(classes: dict) -> tuple:
    return Partition.from_class_of(classes.values()).class_of


@pytest.mark.parametrize("mode, seed, programs, max_names, max_depth", [
    ("afa", 1, 400, 6, 3), ("safa", 2, 400, 6, 3), ("fafa", 3, 200, 4, 2), ("boffa", 4, 400, 6, 3),
])
def test_matches_per_name_path(tmp_path, monkeypatch, mode, seed, programs, max_names, max_depth):
    """Pictures, classes, printed sets, ``solve`` and ``solve --json``
    stdout, ``--dot`` files and ``aut`` generators agree with the per-name
    path on random programs."""
    rounds: list[int] = []  # per reference canonicalize call
    partitions = [0]
    blocks = canon._blocks

    def counted_blocks(*args):
        partitions[0] += 1
        return blocks(*args)

    def counted_canonicalize(g, s, cap=512, _f=canon.canonicalize):
        before = partitions[0]
        result = _f(g, s, cap=cap)
        rounds.append(partitions[0] - before)
        return result

    monkeypatch.setattr(canon, "_blocks", counted_blocks)
    monkeypatch.setattr(canon, "canonicalize", counted_canonicalize)
    rng = random.Random(seed)
    path, dot = tmp_path / "p.hs-set", tmp_path / "p.dot"
    multi_round = 0
    for _ in range(programs):
        text = random_program(rng, mode == "boffa", max_names, max_depth)
        program = parse(text)
        del rounds[:]
        pics, classes = reference_solve_names(program, mode)
        multi_round += any(r > 1 for r in rounds)
        sol = _solve_names(program, mode, 512)
        assert list(sol.classes) == list(pics), text
        assert partition(sol.classes) == partition(classes), text
        for name, pic in pics.items():
            assert sol.picture(name) == pic, (text, name)
            assert sol.text(name) == reference_unparse(pic), (text, name)
        path.write_text(text)
        want = reference_solve_output(pics, classes, mode)
        assert run(["solve", str(path), "--mode", mode]) == (0, want), text
        want = reference_solve_output(pics, classes, mode, as_json=True)
        assert run(["solve", str(path), "--mode", mode, "--json", "--dot", str(dot)]) == (0, want), text
        assert dot.read_text() == "".join(to_dot(pic, name=name) for name, pic in pics.items())
        name = rng.choice(list(pics))
        group = automorphisms(pics[name])
        want = [f"automorphism order {group.order}"]
        want += ["generator " + " ".join(map(str, p)) for p in group.generators]
        assert run(["aut", str(path), name, "--mode", mode]) == (0, "\n".join(want) + "\n"), text
    if mode == "safa":
        assert multi_round >= 100, multi_round


# --- Boffa insertion: the congruence closure against the fixpoint loop ------

def compare_merges(monkeypatch) -> dict:
    """Make every ``flatten_into`` run the fixpoint loop on a copy of the
    graph it hands ``_merge_duplicates``, and compare: the representative
    map, the surviving keys in order and their kid lists.  Counts the
    graphs, and those where merges cascaded past literal duplicates."""
    stats = {"graphs": 0, "cascades": 0}
    merge = hsl._merge_duplicates

    def both(children):
        want = {k: list(kids) for k, kids in children.items()}
        literal = len(set(map(frozenset, want.values())))
        want_rep = reference_merge_duplicates(want)
        rep = merge(children)
        assert rep == want_rep
        assert list(children) == list(want)
        assert children == want
        stats["graphs"] += 1
        stats["cascades"] += len(want) < literal
        return rep

    monkeypatch.setattr(hsl, "_merge_duplicates", both)
    return stats


def test_merge_matches_fixpoint_loop(monkeypatch):
    stats = compare_merges(monkeypatch)
    rng = random.Random(6)
    for _ in range(3000):
        hsl.flatten_into(parse(random_program(rng, True, 6, 3, twins=True)), boffa.Universe())
    assert stats["graphs"] == 3000
    assert stats["cascades"] >= 2000, stats


def test_merge_matches_fixpoint_loop_with_given_ids(monkeypatch):
    """A second program whose free names are bound to sets of the first:
    the old keys of their transitive closure enter the merge first."""
    stats = compare_merges(monkeypatch)
    rng = random.Random(7)
    bound = 0
    for _ in range(1000):
        u = boffa.Universe()
        ids = list(hsl.flatten_into(parse(random_program(rng, True, 6, 3, twins=True)), u).values())
        lines = random_program(rng, True, 6, 3, twins=True).splitlines()
        free = [line.split()[0] for line in lines if line[0] == "n" and rng.random() < 0.4]
        text = "\n".join(line for line in lines if line.split()[0] not in free)
        given = {name: rng.choice(ids) for name in free}
        hsl.flatten_into(parse(text), u, given)
        bound += bool(given)
    assert stats["graphs"] == 2000 and bound >= 700
    assert stats["cascades"] >= 1200, stats


def test_boffa_solve_bytes_independent_of_hash_seed(tmp_path):
    """Signatures are sets of string-keyed tuples, whose iteration order
    follows PYTHONHASHSEED; the classes, their elected keys and so the set
    ids must not."""
    rng = random.Random(8)
    paths = []
    for i in range(60):
        paths.append(str(tmp_path / f"p{i}.hs-set"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(random_program(rng, True, 8, 3))
    script = ("import sys\nfrom hypersets.cli import main\n"
              "for path in sys.argv[1:]:\n    main(['solve', path, '--mode', 'boffa'])\n")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("set n0\n") == 60


def relabelled(rng: random.Random, g: Apg) -> Apg:
    """g with its node ids shuffled, so that they are not breadth-first."""
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    children = [frozenset()] * g.node_count
    for u, kids in enumerate(g.children):
        children[perm[u]] = frozenset(perm[v] for v in kids)
    return Apg(tuple(children), perm[g.root])


def test_unparse_matches_reference_on_relabelled_graphs():
    rng = random.Random(5)
    graphs = [random_apg(rng, 9) for _ in range(500)]
    while len(graphs) < 1200:
        graphs += flatten(parse(random_program(rng, False, 4, 3))).values()
    for g in graphs:
        h = relabelled(rng, g)
        assert unparse(h) == reference_unparse(h), h


# --- complexity: counted calls, no clock -----------------------------------

RING = 1000


def ring_program(n: int) -> str:
    return "".join(f"r{i} = {{r{(i + 1) % n}}};\n" for i in range(n))


class ByteCount:
    """A stdout that keeps only counts of bytes and lines, and the tail."""

    def __init__(self):
        self.size = 0
        self.lines = 0
        self.tail = ""

    def write(self, text: str) -> int:
        self.size += len(text.encode())
        self.lines += text.count("\n")
        self.tail = (self.tail + text)[-64:]
        return len(text)

    def flush(self):
        pass


def ring_lines(n: int) -> int:
    """Lines ``solve`` prints for an n-name ring: per name a header, one
    equation and a blank line, then one verdict per pair."""
    return 3 * n + n * (n - 1) // 2


@pytest.fixture(scope="module")
def ring_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ring") / "ring.hs-set"
    path.write_text(ring_program(RING))
    return str(path)


def count_calls(monkeypatch, owner_names, counts):
    """Wrap each named function wherever the package holds it."""
    for owner, name in owner_names:
        fn = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (apg, boffa, canon, cli, equivalence, hsl):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
        if owner is boffa.Universe:
            monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("mode", ["afa", "safa", "fafa"])
def test_pure_solve_settles_once(monkeypatch, ring_path, mode):
    """Solve settles the ring once in every mode.  FAFA's Finsler partition
    makes one pointed-isomorphism test and no search: every node's trimmed
    sub-APG has the same child sets, so the test returns the identity, and
    that one map unites every node of the ring with the next."""
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(canon, "_settle"), (apg, "trim_to_accessible"),
                              (canon, "canonicalize"), (apg, "_pointed_iso"),
                              (apg, "_search")], counts)
    sink = ByteCount()
    monkeypatch.setattr("sys.stdout", sink)
    assert main(["solve", ring_path, "--mode", mode, "--cap", str(RING)]) == 0
    assert counts["_settle"] == 1
    assert counts["trim_to_accessible"] <= 1
    assert counts["canonicalize"] == 0
    assert counts["_pointed_iso"] == (mode == "fafa")
    assert counts["_search"] == 0
    assert sink.lines == ring_lines(RING)
    assert sink.tail.endswith(f"equal r{RING - 2} r{RING - 1}\n")


@pytest.mark.parametrize("mode", ["safa", "fafa"])
def test_canonicalize_does_not_renumber_a_settled_quotient(monkeypatch, mode):
    """r -> {x, y}, x -> {a, b}, y -> {c}: round one merges the leaves,
    round two merges x and y, and round three finds the quotient discrete.
    Each intermediate round quotients once, and the settled quotient, which
    is already numbered, is not quotiented again."""
    fs = frozenset
    g = Apg((fs([1, 2]), fs([3, 4]), fs([5]), fs(), fs(), fs()), 0)
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(canon, "_blocks"), (apg, "_quotient")], counts)
    r = canon.canonicalize(g, canon.Semantics(mode))
    assert r.canonical.children == (fs([1]), fs([2]), fs())
    assert r.decoration == (0, 1, 1, 2, 2, 2)
    assert counts == {"_blocks": 3, "_quotient": 2}


def paley_program(q: int) -> str:
    """r over the q vertex sets of the Paley graph on Z_q, q a prime that
    is 1 mod 4, each vertex the set of its neighbours."""
    squares = {x * x % q for x in range(1, q)}
    return f"r = {{{', '.join(f'v{i}' for i in range(q))}}};\n" + "".join(
        f"v{i} = {{{', '.join(f'v{j}' for j in range(q) if (j - i) % q in squares)}}};\n"
        for i in range(q))


@pytest.mark.parametrize("q", [13, 29, 53])
def test_fafa_solve_on_paley_makes_at_most_three_tests(monkeypatch, tmp_path, q):
    """The q vertices share one counting class, and a test per vertex made
    q - 1 tests.  Each map found is an automorphism of the Paley graph and
    unites every vertex with its image, so a few maps settle the class."""
    path = tmp_path / "paley.hs-set"
    path.write_text(paley_program(q))
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(apg, "_pointed_iso")], counts)
    sink = ByteCount()
    monkeypatch.setattr("sys.stdout", sink)
    assert main(["solve", str(path), "--mode", "fafa"]) == 0
    assert counts["_pointed_iso"] <= 3
    assert sink.tail.endswith(f"equal v{q - 2} v{q - 1}\n")


# Two names of 6 and 8 nodes that share no node: 14 nodes in all.
APART = "a = {{{{{{}}}}}}; b = {{{{{{{x}}}}}}}; x = {x};"


def test_fafa_cap_bounds_each_name(tmp_path, monkeypatch, capsys):
    """Each name's graph is within the cap but their union is not: the cap
    bounds each name, so ``solve``, ``eq`` and ``:eq`` go through; a name
    over the cap exits 3 with the Finsler partition's message."""
    path = tmp_path / "apart.hs-set"
    path.write_text(APART)
    graphs = flatten(parse(APART))
    assert [graphs[name].node_count for name in "abx"] == [6, 8, 1]
    cap = ["--mode", "fafa", "--cap", "8"]
    assert main(["solve", str(path), *cap]) == 0
    assert capsys.readouterr().out.endswith("distinct a b\ndistinct a x\ndistinct b x\n")
    assert main(["eq", str(path), "a", "b", *cap]) == 10
    assert capsys.readouterr().out == "unequal\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(APART + "\n:eq a b\n:eq b b\n"))
    assert main(["repl", *cap]) == 0
    assert capsys.readouterr().out == "unequal\nequal\n"
    cap[-1] = "7"
    for argv in (["solve", str(path)], ["eq", str(path), "a", "b"], ["eq", str(path), "b", "x"]):
        assert main([*argv, *cap]) == 3
        assert capsys.readouterr().err == "size cap: finsler partition capped at 7 nodes\n"
    assert main(["eq", str(path), "a", "x", *cap]) == 10
    assert capsys.readouterr().out == "unequal\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(APART + "\n:eq a x\n:eq a b\n"))
    assert main(["repl", *cap]) == 0
    assert capsys.readouterr().out == "unequal\nerror: finsler partition capped at 7 nodes\n"


# u, v is a renamed copy of x, y; w differs from both.
COPIES = "x = {y, {}}; y = {x}; u = {v, {}}; v = {u}; w = {u, {{}}};"


def test_safa_eq_on_a_renamed_copy_refines_once(monkeypatch, capsys, tmp_path):
    """Once x and u share a block, the settle stops; without the names it
    would take a second round, as the fresh root has both in one block."""
    path = tmp_path / "copies.hs-set"
    path.write_text(COPIES)
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(apg, "_refine")], counts)
    assert main(["eq", str(path), "x", "u", "--mode", "safa"]) == 0
    assert counts["_refine"] == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(COPIES + "\n:eq x u\n"))
    assert main(["repl", "--mode", "safa"]) == 0
    assert counts["_refine"] == 2
    assert capsys.readouterr().out == "equal\nequal\n"
    counts["_refine"] = 0
    _solve_names(parse(COPIES), "safa", 512, ("x", "u"))  # with pictures
    assert counts["_refine"] >= 2
    assert main(["eq", str(path), "x", "w", "--mode", "safa"]) == 10


@pytest.mark.parametrize("mode", ["afa", "safa", "fafa", "boffa"])
def test_eq_reads_no_pictures(monkeypatch, mode):
    program = parse(COPIES)
    want = _solve_names(program, mode, 512).classes
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(canon, "canonicalize")], counts)
    pictures = []
    monkeypatch.setattr(cli, "solve", lambda *a, _f=canon.solve: pictures.append(a[4]) or _f(*a))
    for a, b in (("x", "u"), ("x", "w"), ("y", "y")):
        sol = _solve_names(program, mode, 512, (a, b), pictures=False)
        assert (sol.classes[a] == sol.classes[b]) == (want[a] == want[b])
        assert sol.members is None and sol.order is None
    assert counts == {"canonicalize": 0}
    assert pictures == ([] if mode == "boffa" else [False] * 3)


@pytest.mark.parametrize("mode", ["afa", "safa", "fafa"])
def test_one_solve_call(monkeypatch, capsys, tmp_path, mode):
    """``equal`` in AFA and SAFA solves the disjoint union once, settling it
    once and trimming nothing; ``eq``, ``solve`` and ``aut`` each solve the
    program once."""
    path = tmp_path / "copies.hs-set"
    path.write_text(COPIES)
    graphs = flatten(parse(COPIES), ["x", "u"])
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(canon, "solve"), (canon, "_settle"), (apg, "_trim")], counts)
    if mode != "fafa":
        assert canon.equal(graphs["x"], graphs["u"], canon.Semantics(mode))
        assert counts == {"solve": 1, "_settle": 1, "_trim": 0}
    for argv in (["eq", str(path), "x", "u"], ["solve", str(path)], ["aut", str(path), "x"]):
        counts["solve"] = 0
        assert main([*argv, "--mode", mode]) == 0
        assert counts["solve"] == 1, argv
    capsys.readouterr()


def test_boffa_solve_reads_no_picture_of(monkeypatch, tmp_path):
    """Every Boffa picture of a ring is the whole ring, so a small one."""
    path = tmp_path / "ring.hs-set"
    path.write_text(ring_program(100))
    counts: dict[str, int] = {}
    count_calls(monkeypatch, [(boffa.Universe, "picture_of")], counts)
    sink = ByteCount()
    monkeypatch.setattr("sys.stdout", sink)
    assert main(["solve", str(path), "--mode", "boffa"]) == 0
    assert counts["picture_of"] == 0
    assert sink.tail.endswith("distinct r98 r99\n")


def test_solve_streams_its_verdicts(monkeypatch, ring_path):
    """The verdicts of a 1,000-name ring fill about 8 MB; solve holds one
    row of them at a time."""
    sink = ByteCount()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert main(["solve", ring_path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 7_000_000
    assert peak < 16 * 2**20, peak


def test_solve_json_streams_its_pairs(monkeypatch, ring_path):
    """The JSON of a 1,000-name ring fills about 35 MB; ``solve --json``
    holds one row of pairs at a time."""
    sink = ByteCount()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert main(["solve", ring_path, "--json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 30_000_000
    assert peak < 32 * 2**20, peak
    assert sink.tail.endswith('"r999": "x0 = {x0};\\n"\n  }\n}\n')


@pytest.mark.parametrize("mode", ["afa", "safa", "fafa", "boffa"])
def test_json_is_json_dumps_for_many_names(tmp_path, mode):
    path = tmp_path / "p.hs-set"
    path.write_text(ring_program(7) + "é = 3; _q = <r0, é>; Z = {}; a_1 = {Z, r3};\n", encoding="utf-8")
    pics, classes = reference_solve_names(parse(path.read_text(encoding="utf-8")), mode)
    want = reference_solve_output(pics, classes, mode, as_json=True)
    assert run(["solve", str(path), "--mode", mode, "--json"]) == (0, want)


@pytest.mark.parametrize("names", [0, 1, 2])
@pytest.mark.parametrize("as_json", [False, True])
def test_few_names_print_as_before(tmp_path, names, as_json):
    path = tmp_path / "p.hs-set"
    path.write_text(ring_program(names) if names else "")
    argv = ["solve", str(path)] + ["--json"] * as_json
    want = reference_solve_output(*reference_solve_names(parse(path.read_text()), "afa"), "afa", as_json)
    assert run(argv) == (0, want)
