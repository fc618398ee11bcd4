"""Fuzzing the command-line surface: every input ends in a documented exit
code (0, 1, 2, 3, 10 or 11), never in a traceback, and within a wall-clock
bound.

The draws cover random bytes (invalid UTF-8 included), programs from a
small grammar, REPL sessions, sets of up to twelve Quine atoms, symmetric
sets of up to 511 nodes that the grammar rarely draws (crowns, rings of
rings, copies under one root, blocks of atoms), ``wf`` flag vectors, and
``group --table`` files of order at most 5.  Programs go
through ``solve`` and ``eq`` in every mode and ``aut`` in a drawn one, and
REPL sessions also ask ``:aut`` and ``:rigid``.  Twelve interchangeable
atoms have 12! automorphisms, which the stabilizer chain counts without
listing them.  A_G's automorphism group is the drawn group itself, of
order at most 5.

Grammar terms sit inside up to 2,000 singleton braces, so that the
wall-clock bound also holds Boffa insertion of two nests that deep to
about linear time: merging one nesting level per pass over the graph
takes seconds there.

Commands on bytes, grammar programs and REPL sessions run at the default
cap of 512 nodes, which bounds only FAFA partitions and isomorphism search.
FAFA's Finsler partition unites every pair of nodes that a pointed
isomorphism it finds maps onto each other, and skips the nodes so settled,
so a class of interchangeable sub-APGs costs a test or two rather than one
per node.  ``wf`` draws its element cap up to 4,096: at the default of
2^16, building and classifying a full stage takes up to about 1.3 s, near
the wall-clock bound.  Symmetric sets go through ``aut``, ``:aut`` and
``:rigid`` in Boffa mode at the default cap: the slowest, about 500
interchangeable atoms, takes about 1.2 s.
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from hypersets.cli import MODES, main

EXIT_CODES = {0, 1, 2, 3, 10, 11}
WALL_S = 2.0  # per command, far above the few milliseconds each one takes
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Definitions bind n0..n4 only, so a reference to n5 is always undefined.
NAMES = [f"n{i}" for i in range(6)]
DEFINED = NAMES[:5]
ATOMS = [f"t{i}" for i in range(6)]


def run_cli(argv, stdin_text=None) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    elapsed = time.perf_counter() - start
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert elapsed < WALL_S, (argv, elapsed)
    return code, out.getvalue()


def _nest(depth_and_term) -> str:
    depth, term = depth_and_term
    return "{" * depth + term + "}" * depth


def terms(leaves):
    """Sets and tuples over the given leaves and numerals up to 50, inside
    up to 2,000 singleton braces."""
    return st.tuples(
        st.integers(0, 2000),
        st.recursive(
            st.one_of(leaves, st.integers(0, 50).map(str)),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4).map(lambda xs: "{" + ", ".join(xs) + "}"),
                st.lists(inner, min_size=2, max_size=4).map(lambda xs: "<" + ", ".join(xs) + ">"),
            ),
            max_leaves=10,
        ),
    ).map(_nest)


any_name = st.sampled_from(NAMES + ATOMS)
# Any statement: names may repeat or be undefined.  Right-hand names make
# aliases, which chain and close cycles.
statements = st.one_of(
    st.tuples(st.sampled_from(DEFINED), st.one_of(terms(any_name), any_name)).map(
        lambda t: f"{t[0]} = {t[1]};"
    ),
    st.sampled_from(ATOMS).map(lambda a: f"atom {a};"),
)


@st.composite
def programs(draw):
    """A program, in shuffled order, that binds each drawn name once and
    refers only to bound names, plus at most one statement drawn from
    ``statements``; and two names for ``eq``."""
    bound = draw(st.lists(st.sampled_from(DEFINED), min_size=1, max_size=5, unique=True))
    # Atom declarations are errors outside Boffa mode, so two programs in
    # three have none.
    atoms = draw(st.lists(st.sampled_from(ATOMS), max_size=6, unique=True)) \
        if draw(st.sampled_from([False, False, True])) else []
    refs = st.sampled_from(bound + atoms)
    # One right-hand side in four is an alias.
    rhs = [draw(refs) if draw(st.integers(0, 3)) == 0 else draw(terms(refs)) for _ in bound]
    lines = [f"{n} = {t};" for n, t in zip(bound, rhs)]
    lines += [f"atom {a};" for a in atoms]
    lines += draw(st.lists(statements, max_size=1))
    pair = st.sampled_from(bound + ["n5"])
    return "\n".join(draw(st.permutations(lines))), draw(pair), draw(pair)


raw_inputs = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="{}<>=,;#\n atomn0123t_xé", max_size=120).map(str.encode),
)


def write(directory: str, data: bytes) -> str:
    path = os.path.join(directory, "prog.hs-set")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def solve_and_eq(path: str, a: str, b: str) -> None:
    for mode in MODES:
        run_cli(["solve", path, "--mode", mode])
        run_cli(["solve", path, "--mode", mode, "--json"])
        run_cli(["eq", path, a, b, "--mode", mode])


@given(raw_inputs)
@settings(FUZZ, max_examples=60)
def test_random_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        solve_and_eq(write(tmp, data), "n0", "x")


@given(programs(), st.sampled_from(MODES))
@settings(FUZZ, max_examples=50)
def test_grammar_programs(program, aut_mode):
    text, a, b = program
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, text.encode())
        solve_and_eq(path, a, b)
        run_cli(["aut", path, a, "--mode", aut_mode])


def repl_lines(picture_path: str):
    name = st.sampled_from(NAMES)
    return st.one_of(
        statements,
        st.tuples(name, name).map(lambda t: f":eq {t[0]} {t[1]}"),
        name.map(lambda a: f":canon {a}"),
        name.map(lambda a: f":aut {a}"),
        name.map(lambda a: f":rigid {a}"),
        st.sampled_from(MODES + ("bogus",)).map(lambda m: f":mode {m}"),
        name.map(lambda a: f":picture {a} {picture_path}"),
        st.sampled_from([":eq n0", ":canon", ":canon n0 n1", ":mode", ":picture n0",
                         ":nope", ":", "=", "n0 = {", "atom;"]),
    )


@given(st.data())
@settings(FUZZ, max_examples=40)
def test_repl_sessions(data):
    with tempfile.TemporaryDirectory() as tmp:
        lines = data.draw(st.lists(repl_lines(os.path.join(tmp, "pic.dot")), max_size=10))
        for mode in MODES:
            assert run_cli(["repl", "--mode", mode], "\n".join(lines) + "\n")[0] == 0


@st.composite
def atom_sets(draw):
    """A Boffa program ``s = {...}`` over up to twelve declared atoms: its
    members are atoms, numerals and sets of atoms."""
    atoms = [f"t{i}" for i in range(draw(st.integers(0, 12)))]
    member = st.sampled_from(atoms) if atoms else st.just("0")
    extra = st.one_of(
        st.integers(0, 3).map(str),
        st.lists(member, max_size=3).map(lambda xs: "{" + ", ".join(xs) + "}"),
    )
    members = atoms + draw(st.lists(extra, max_size=4))
    lines = [f"atom {a};" for a in atoms] + ["s = {" + ", ".join(members) + "};"]
    return "\n".join(draw(st.permutations(lines))), len(members) == len(atoms)


@given(atom_sets())
@settings(FUZZ, max_examples=40)
def test_aut_on_atom_sets(program):
    text, only_atoms = program
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_cli(["aut", write(tmp, text.encode()), "s", "--mode", "boffa", "--json"])
    assert code == 0
    if only_atoms:
        report = json.loads(out)
        assert report["order"] == math.factorial(text.count("atom "))


def _crown(root: str, ring: str, n: int) -> list[str]:
    """``root`` over the n-ring ``ring``0 -> ``ring``1 -> ... -> ``ring``0."""
    members = ", ".join(f"{ring}{i}" for i in range(n))
    return [f"{root} = {{{members}}};"] + [f"{ring}{i} = {{{ring}{(i + 1) % n}}};" for i in range(n)]


@st.composite
def symmetric_sets(draw):
    """A Boffa program whose set ``r`` has up to 511 nodes and a large
    automorphism group, and that group's order: a crown (a root over an
    n-ring, Z_n), a k-ring of nodes over an m-ring each (Z_m wr Z_k), k
    copies of an m-crown under one root (Z_m wr S_k), or k blocks of m
    declared atoms (S_m wr S_k)."""
    kind = draw(st.sampled_from(["crown", "rings", "copies", "blocks"]))
    if kind == "crown":
        n = draw(st.integers(1, 510))
        return _crown("r", "a", n), n
    k = draw(st.integers(1, 100))
    m = draw(st.integers(1, 510 // k - 1))  # 1 + k (m + 1) <= 511 nodes
    if kind == "rings":
        lines = _crown("r", "o", k)[:1]
        for i in range(k):
            inner = "".join(f", x{i}_{j}" for j in range(m))
            lines += [f"o{i} = {{o{(i + 1) % k}{inner}}};"] + _crown("", f"x{i}_", m)[1:]
        return lines, k * m**k
    if kind == "copies":
        lines = _crown("r", "c", k)[:1]
        for i in range(k):
            lines += _crown(f"c{i}", f"a{i}_", m)
        return lines, math.factorial(k) * m**k
    lines = [f"atom t{i}_{j};" for i in range(k) for j in range(m)]
    lines += [f"b{i} = {{" + ", ".join(f"t{i}_{j}" for j in range(m)) + "};" for i in range(k)]
    lines.append("r = {" + ", ".join(f"b{i}" for i in range(k)) + "};")
    return lines, math.factorial(m) ** k * math.factorial(k)


@given(symmetric_sets())
@settings(FUZZ, max_examples=30)
def test_aut_on_symmetric_sets(shape):
    # At the default cap: with orbit pruning the search finds at most
    # log2(order) + 1 leaves, so each command stays within the bound.
    lines, order = shape
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_cli(["aut", write(tmp, "\n".join(lines).encode()), "r", "--mode", "boffa"])
    assert (code, out.splitlines()[0]) == (0, f"automorphism order {order}")
    code, out = run_cli(["repl", "--mode", "boffa"], "\n".join([*lines, ":aut r", ":rigid r"]) + "\n")
    assert code == 0
    assert out.splitlines()[-2:] == [f"order {order}", "rigid" if order == 1 else "not rigid"]


@st.composite
def wf_flags(draw):
    """A ``wf`` flag vector: counts from -1 up, so some are rejected, at
    most one of ``--perm`` (cycle text over atom indices, some unknown or
    malformed) and ``--embed-into``, and maybe ``--json``."""
    argv = ["wf", "--atoms", str(draw(st.integers(-1, 12))), "--levels", str(draw(st.integers(-1, 3))),
            "--cap", str(draw(st.integers(1, 4096)))]
    extra = draw(st.sampled_from(["", "perm", "embed"]))
    if extra == "perm":
        cycles = st.lists(st.integers(-1, 12).map(str), min_size=1, max_size=4).map(" ".join)
        argv += ["--perm", draw(st.one_of(
            st.lists(cycles, max_size=3).map(lambda cs: "".join(f"({c})" for c in cs)),
            st.text(alphabet="() 0123,x", max_size=8),
        ))]
    elif extra == "embed":
        argv += ["--embed-into", str(draw(st.integers(-1, 13)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(wf_flags())
@settings(FUZZ, max_examples=60)
def test_wf_flags(argv):
    code, out = run_cli(argv)
    if code == 0 and "--perm" not in argv and "--embed-into" not in argv and "--json" not in argv:
        atoms = int(argv[2])
        assert out.splitlines()[-1] == f"automorphism count {math.factorial(atoms)}"
    if code == 0 and "--embed-into" in argv:
        # An injective atom map onto as many atoms is a permutation.
        verdict = (json.loads(out)["map"]["verdict"] if "--json" in argv
                   else out.splitlines()[2].removeprefix("verdict "))
        onto = argv[argv.index("--embed-into") + 1] == argv[2]
        assert verdict == ("automorphism" if onto else "proper-embedding")


@st.composite
def group_documents(draw):
    """A ``group --table`` document of order 0 to 5: one time in three a
    cyclic group or the Klein four-group with its elements relabelled,
    otherwise rows of entries from -1 to 6, some of them ragged.  One order
    field in four is drawn on its own, so it is mostly wrong."""
    if draw(st.integers(0, 2)) == 0:
        n = draw(st.integers(1, 5))
        klein = n == 4 and draw(st.booleans())
        p = draw(st.permutations(range(n)))
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            rows[p[i]][p[j]] = p[i ^ j if klein else (i + j) % n]
    else:
        n = draw(st.integers(0, 5))
        square = st.lists(st.integers(-1, 6), min_size=n, max_size=n)
        ragged = st.lists(st.integers(-1, 6), max_size=6)
        rows = draw(st.lists(st.one_of(square, square, ragged), min_size=n, max_size=n))
    order = len(rows) if draw(st.integers(0, 3)) else draw(st.one_of(st.integers(-1, 7), st.none()))
    return {"order": order, "table": rows}


def is_group(doc) -> bool:
    """The document holds a square table over 0..n-1, n >= 1, with an
    identity, associative, with inverses, and its order field is n."""
    rows, n = doc["table"], len(doc["table"])
    elements = range(n)
    if doc["order"] != n or n == 0 or any(len(r) != n or not set(r) <= set(elements) for r in rows):
        return False
    ids = [e for e in elements if all(rows[e][x] == x == rows[x][e] for x in elements)]
    return bool(ids) and all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]] for x in elements for y in elements for z in elements
    ) and all(any(rows[x][y] == ids[0] == rows[y][x] for y in elements) for x in elements)


@given(group_documents())
@settings(FUZZ, max_examples=80)
def test_group_tables(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, json.dumps(doc).encode())
        code, out = run_cli(["group", "--table", path, "--json"])
        assert run_cli(["group", "--table", path])[0] == code
    assert code in {0, 2, 3}
    if is_group(doc):
        assert code == 0
        report = json.loads(out)
        assert report["automorphism_count"] == report["group_order"] == len(doc["table"])
        assert report["isomorphic_to_input"] is True
    else:
        assert code == 2
