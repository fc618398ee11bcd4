"""The three workloads: their inputs, their operations and their checks.

A workload's ``setup`` builds every input from the seed and writes the
programs the CLI reads.  ``ops`` lists the operations of one round, each
either a CLI command run in-process through ``hypersets.cli.main`` or
library calls; the operations reach the package through module attributes
at call time, so the traced run sees them.  ``check`` compares the outputs
of a round (a list per operation, one output per call) with the oracles and
with the construction of the inputs, and returns a list of problems (empty
when every output is right).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs
import oracles

MODES = ("afa", "safa", "fafa", "boffa")
PURE = ("afa", "safa", "fafa")


@dataclass
class Op:
    """An operation of a round: one or more calls, each timed on its own.
    A CLI command is one call; a batch of ``equal`` decisions is one call
    per pair, so that each decision gets its own best time."""

    name: str
    surface: str  # "cli" or "library"
    calls: list[Callable[[], Any]]

    @property
    def count(self) -> int:
        return len(self.calls)


def run_cli(mods, argv: list[str]) -> tuple[int, str]:
    """``hypersets ARGV`` in this process, with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _apg(mods, graph):
    children, root = graph
    return mods.apg.Apg(tuple(children), root)


# --- reading CLI output --------------------------------------------------------

_LINE = re.compile(r"^(x\d+) = (.*);$")


def parse_printed(text: str):
    """Graph of an ``unparse`` equation system, read without the package:
    ``xN = {xA, ...};``, ``xN = <xA, xB>;`` (a Kuratowski pair) or
    ``xN = K;`` (a von Neumann numeral).  The root is x0."""
    g = inputs.Desugared()
    rhs = {}
    for line in text.strip().splitlines():
        m = _LINE.match(line.strip())
        if m is None:
            raise ValueError(f"not an equation: {line!r}")
        g.names[m.group(1)] = g.node()
        rhs[m.group(1)] = m.group(2)
    for name, body in rhs.items():
        node = g.names[name]
        if body.isdigit():
            g.children[node] = set(g.children[g.numeral(int(body))])
            continue
        inner = [t.strip() for t in body[1:-1].split(",") if t.strip()]
        kids = [g.names[t] for t in inner]
        if body.startswith("<"):
            g.children[node] = set(g.children[g.tuple_(kids)])
        else:
            g.children[node] = set(kids)
    return g.children, g.names["x0"]


def parse_solve(text: str):
    """Printed set of each name, and the verdict of each pair, from the
    text output of ``hypersets solve``."""
    sets: dict[str, str] = {}
    verdicts: dict[tuple[str, str], bool] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("set "):
            current = line[4:]
            sets[current] = ""
        elif line.startswith(("equal ", "distinct ")):
            word, a, b = line.split()
            verdicts[(a, b)] = word == "equal"
            current = None
        elif current is not None and line:
            sets[current] += line + "\n"
    return sets, verdicts


# --- many-small ------------------------------------------------------------------

# Programs per mode and names per program, and pairs per equal batch.
# Program j of every mode has the fixed wiring WIRING + j, and the seed
# draws its names, because a program's cost depends on the wiring of its
# largest clusters (see inputs.clustered_program).  FAFA's per-node
# isomorphism tests make it the dearest mode, so it gets the smallest
# programs; Boffa only compares set ids, so it gets the largest.  A round
# stays short, so that a run times each call many times.
WIRING = 1000
SOLVE_PROGRAMS = {"afa": (3, 12), "safa": (3, 8), "fafa": (3, 8), "boffa": (2, 60)}
EQUAL_PAIRS = {"afa": 1000, "safa": 700, "fafa": 300}


@dataclass
class ManySmall:
    programs: dict = field(default_factory=dict)  # (mode, j) -> Program
    paths: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    pair_graphs: dict = field(default_factory=dict)

    def setup(self, mods, seed: int, workdir: str) -> None:
        # Program j of every mode comes from the same two seeds, so the
        # smaller pure programs are prefixes of the Boffa one and their
        # verdicts can be compared.
        for mode, (count, names) in SOLVE_PROGRAMS.items():
            for j in range(count):
                prog = inputs.clustered_program(WIRING + j, names, seed * 1000 + j)
                path = os.path.join(workdir, f"many-small.{mode}.{j}.hs-set")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(prog.text)
                self.programs[(mode, j)] = prog
                self.paths[(mode, j)] = path
        rng = random.Random(seed)
        for i, mode in enumerate(PURE):
            raw = inputs.graph_pairs(WIRING + i, EQUAL_PAIRS[mode], relabel=rng)
            self.pair_graphs[mode] = raw
            self.pairs[mode] = [(_apg(mods, a), _apg(mods, b)) for a, b, _ in raw]

    def ops(self, mods) -> list[Op]:
        out = []
        for mode, (count, _) in SOLVE_PROGRAMS.items():
            calls = [lambda argv=["solve", self.paths[(mode, j)], "--mode", mode]: run_cli(mods, argv)
                     for j in range(count)]
            out.append(Op(f"solve_{mode}", "cli", calls))
        for mode in PURE:
            sem = mods.canon.Semantics(mode)
            calls = [lambda a=a, b=b, sem=sem: mods.canon.equal(a, b, sem) for a, b in self.pairs[mode]]
            out.append(Op(f"equal_{mode}", "library", calls))
        return out

    def check(self, mods, outputs: dict) -> list[str]:
        problems: list[str] = []
        verdicts = {}
        for (mode, j), prog in self.programs.items():
            code, text = outputs[f"solve_{mode}"][j]
            if code != 0:
                problems.append(f"solve --mode {mode} of program {j} exited {code}")
                continue
            sets, pairs = parse_solve(text)
            verdicts[(mode, j)] = pairs
            expected = set(itertools.combinations(prog.names, 2))
            if set(sets) != set(prog.names) or set(pairs) != expected:
                problems.append(f"solve --mode {mode} of program {j} did not report every name and pair")
                continue
            problems += _check_solve(mode, prog, sets, pairs)
        for (mode, j), prog in self.programs.items():
            if mode == "boffa":
                others = {m: verdicts.get((m, j), {}) for m in PURE}
                problems += _check_boffa(mods, prog, verdicts.get((mode, j), {}), others)
        for mode in PURE:
            problems += _check_pairs(mode, self.pair_graphs[mode], outputs[f"equal_{mode}"])
        return problems


def _check_solve(mode: str, prog, sets: dict, pairs: dict) -> list[str]:
    """Pair verdicts against the oracle of the mode, planted copies equal,
    and every printed set equal to the picture of its name."""
    problems = []
    g = prog.graph
    node = g.names
    afa = oracles.signature_classes(g.children)
    safa, _ = oracles.safa_classes(g.children)
    for (a, b), eq in pairs.items():
        afa_eq = afa[node[a]] == afa[node[b]]
        safa_eq = safa[node[a]] == safa[node[b]]
        if mode == "afa" and eq != afa_eq:
            problems.append(f"afa verdict {a} {b} is {eq}, oracle says {afa_eq}")
        if mode == "safa" and eq != safa_eq:
            problems.append(f"safa verdict {a} {b} is {eq}, oracle says {safa_eq}")
        if mode == "fafa" and eq and not (safa_eq and afa_eq):
            problems.append(f"fafa says {a} = {b}, which are not SAFA- and AFA-equal")
    for a, b in prog.copies:
        if mode != "boffa" and not pairs[(a, b)]:
            problems.append(f"{mode}: renamed copy {b} of {a} came out distinct")
    # A printed set must picture its name: FAFA pictures are checked by the
    # SAFA oracle (FAFA-equal implies SAFA-equal), Boffa pictures by the AFA
    # oracle (a realized set is bisimilar to its source, not more).
    classes = oracles.signature_classes if mode in ("afa", "boffa") else (
        lambda ch: oracles.safa_classes(ch)[0])
    for name, text in sets.items():
        try:
            printed = parse_printed(text)
        except (ValueError, KeyError) as exc:
            problems.append(f"{mode}: printed set of {name} does not parse: {exc}")
            continue
        children, (r1, r2) = oracles.disjoint_union(printed, (g.children, node[name]))
        cls = classes(children)
        if cls[r1] != cls[r2]:
            problems.append(f"{mode}: printed set of {name} is not its picture")
    return problems


def _check_boffa(mods, prog, boffa: dict, others: dict) -> list[str]:
    """Boffa-equal names are equal in every mode, and the universe the
    program fills keeps one set per member set.  ``others`` holds the pure
    modes' verdicts on prefixes of the same program."""
    problems = []
    afa = oracles.signature_classes(prog.graph.children)
    safa, _ = oracles.safa_classes(prog.graph.children)
    node = prog.graph.names
    for (a, b), eq in boffa.items():
        if eq and (afa[node[a]] != afa[node[b]] or safa[node[a]] != safa[node[b]]):
            problems.append(f"boffa says {a} = {b}, which differ under AFA or SAFA")
        for mode, other in others.items():
            if eq and not other.get((a, b), True):
                problems.append(f"boffa says {a} = {b}, {mode} says distinct")
    u = mods.boffa.Universe()
    mods.hsl.flatten_into(mods.hsl.parse(prog.text), u)
    members = list(u.sets.values())
    if len(set(members)) != len(members):
        problems.append("two sets of the Boffa universe share a member set")
    return problems


def _check_pairs(mode: str, raw_pairs, got: list) -> list[str]:
    problems = []
    if len(got) != len(raw_pairs):
        return [f"equal {mode}: {len(got)} verdicts for {len(raw_pairs)} pairs"]
    for i, ((g1, g2, copy), eq) in enumerate(zip(raw_pairs, got)):
        afa = oracles.afa_equal(g1, g2)
        safa = oracles.safa_equal(g1, g2)
        if mode == "afa" and eq != afa:
            problems.append(f"equal afa pair {i}: {eq}, oracle says {afa}")
        elif mode == "safa" and eq != safa:
            problems.append(f"equal safa pair {i}: {eq}, oracle says {safa}")
        elif mode == "fafa" and (eq and not (safa and afa) or copy and not eq):
            problems.append(f"equal fafa pair {i}: {eq} breaks FAFA => SAFA => AFA or a planted copy")
    return problems


# --- large-graph -------------------------------------------------------------------

# The random graph has the fixed wiring GRAPH_WIRING, and the ring system
# the fixed tag word RING_WIRING; the seed draws the node numbering of the
# graph and of its copy, and the names and order of the ring equations.
# The refinement work depends on the wiring (the best time of SAFA
# canonicalize differed by 30% between two of five wirings of 2,000 nodes,
# and that of eq by 40% between two of five tag words), and not on the
# numbering: under cProfile every numbering makes the same calls, give or
# take 0.2%.  The sizes keep every call under 0.1 s, so that a run times
# each call many times.  The canonical forms of the graph still have more
# than 512 nodes, the isomorphism cap (see equal_afa_copy).
GRAPH_WIRING = 1
GRAPH_NODES = 700
RING_WIRING = 1
RING_PERIOD = 6
RING_LAPS = 3


@dataclass
class LargeGraph:
    raw: Any = None
    graph: Any = None
    copy: Any = None
    rings: Any = None
    path: str = ""

    def setup(self, mods, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        base = inputs.random_dense_graph(GRAPH_WIRING, GRAPH_NODES, 3 * GRAPH_NODES)
        self.raw = inputs.relabelled(rng, base)
        self.graph = _apg(mods, self.raw)
        self.copy = _apg(mods, inputs.relabelled(rng, self.raw))
        self.rings = inputs.ring_system(RING_WIRING, RING_PERIOD, RING_LAPS, seed)
        self.path = os.path.join(workdir, "large-graph.hs-set")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.rings.text)

    def ops(self, mods) -> list[Op]:
        def canon(mode):
            res = mods.canon.canonicalize(self.graph, mods.canon.Semantics(mode))
            return res.canonical.children, res.decoration

        out = [Op(f"canonicalize_{m}", "library", [lambda m=m: canon(m)]) for m in ("afa", "safa")]
        for mode in ("afa", "safa"):
            for kind, (a, b) in (("equal", self.rings.equal_pair), ("unequal", self.rings.unequal_pair)):
                argv = ["eq", self.path, a, b, "--mode", mode]
                out.append(Op(f"eq_{mode}_{kind}", "cli", [lambda argv=argv: run_cli(mods, argv)]))

        def equal_copy():
            return mods.canon.equal(self.graph, self.copy, mods.canon.Semantics.AFA)

        out.append(Op("equal_afa_copy", "library", [equal_copy]))
        return out

    def check(self, mods, outputs: dict) -> list[str]:
        outputs = {name: out[0] for name, out in outputs.items()}
        problems = []
        children = self.raw[0]
        afa = oracles.signature_classes(children)
        safa, safa_count = oracles.safa_classes(children)
        for mode, expected in (("afa", afa), ("safa", safa)):
            canon_children, decoration = outputs[f"canonicalize_{mode}"]
            bad = oracles.decoration_errors(children, canon_children, decoration)
            if bad:
                problems.append(f"canonicalize {mode}: decoration equation fails at {bad} nodes")
            if not oracles.same_partition(decoration, expected):
                problems.append(f"canonicalize {mode}: classes differ from the oracle's")
        if len(outputs["canonicalize_safa"][0]) != safa_count:
            problems.append("canonicalize safa: canonical size differs from the oracle's")
        for mode in ("afa", "safa"):
            for kind, code in (("equal", 0), ("unequal", 10)):
                got = outputs[f"eq_{mode}_{kind}"]
                if got != (code, kind + "\n"):
                    problems.append(f"eq --mode {mode} on the {kind} pair gave {got!r}")
        got = outputs["equal_afa_copy"]
        if got is not True and got != ("raised", "SizeLimitExceeded"):
            problems.append(f"equal on a relabelled copy gave {got!r}")
        return problems


# --- symmetry ----------------------------------------------------------------------

# aut runs on a set of AUT_ATOMS Quine atoms, 0 and 1: nine nodes, so the
# backtracking search runs, not the brute-force path of eight nodes or
# fewer, and it finds 6! automorphisms in about 10 ms.  Eight atoms (8!
# automorphisms) took 0.6 to 0.9 s in one call and seven atoms about 70 ms,
# calls too long to time steadily on a shared machine.
AUT_ATOMS = 6
LIB_AUT_ATOMS = 6
WF_ATOMS, WF_LEVELS = 3, 2


@dataclass
class Symmetry:
    path: str = ""
    labels: list = field(default_factory=list)
    sigma: dict = field(default_factory=dict)

    def setup(self, mods, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.labels = [f"q{seed}_{i}" for i in range(AUT_ATOMS)]
        rng.shuffle(self.labels)
        decls = "".join(f"atom {a};\n" for a in self.labels)
        members = self.labels[:]
        rng.shuffle(members)
        self.path = os.path.join(workdir, "symmetry.hs-set")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(decls + "s = {" + ", ".join(members + ["0", "1"]) + "};\n")
        images = list(range(WF_ATOMS))
        while images == sorted(images):
            rng.shuffle(images)
        self.sigma = dict(enumerate(images))

    def ops(self, mods) -> list[Op]:
        cli = [
            ("aut", ["aut", self.path, "s", "--mode", "boffa"]),
            ("group", ["group", "--preset", "s3"]),
            ("wf", ["wf", "--atoms", str(WF_ATOMS), "--levels", str(WF_LEVELS)]),
        ]
        out = [Op(f"{name}_cli", "cli", [lambda argv=argv: run_cli(mods, argv)]) for name, argv in cli]

        def aut_lib():
            u = mods.boffa.Universe()
            atoms = [u.add_quine_atom(label=a) for a in self.labels[:LIB_AUT_ATOMS]]
            return mods.canon.automorphisms(u.picture_of(u.add_set(atoms))).order

        def group_lib():
            rows = {}
            for name in ("z4", "v4"):
                group = mods.grouplab.preset_group(name)
                rep = mods.grouplab.aut_group_of(mods.grouplab.build_A_G(group))
                rows[name] = (rep.automorphism_count, rep.table,
                              mods.grouplab.groups_isomorphic(rep.table, group))
            crossed = mods.grouplab.groups_isomorphic(rows["z4"][1], mods.grouplab.preset_group("v4"))
            return {k: (count, iso) for k, (count, _, iso) in rows.items()}, crossed

        def wf_lib():
            w = mods.wflab.build_universe(WF_ATOMS, WF_LEVELS)
            rep = mods.wflab.classify_map(w, mods.wflab.extend_map(w, self.sigma))
            return [len(level) for level in w.levels], mods.wflab.all_automorphisms(w).count, rep.verdict

        out += [Op("aut_lib", "library", [aut_lib]), Op("group_lib", "library", [group_lib]),
                Op("wf_lib", "library", [wf_lib])]
        return out

    def check(self, mods, outputs: dict) -> list[str]:
        outputs = {name: out[0] for name, out in outputs.items()}
        problems = []
        code, text = outputs["aut_cli"]
        lines = text.splitlines()
        gens = [tuple(int(x) for x in line.split()[1:]) for line in lines[1:]]
        nodes = AUT_ATOMS + 3
        if code != 0 or not lines or lines[0] != f"automorphism order {_factorial(AUT_ATOMS)}":
            problems.append(f"aut reported {lines[:1]!r}, exit {code}")
        elif any(sorted(p) != list(range(nodes)) or p[0] != 0 for p in gens):
            problems.append("aut printed a generator that is not a root-fixing permutation")
        elif oracles.group_order(gens, nodes) != _factorial(AUT_ATOMS):
            problems.append("aut generators do not generate the full symmetric group")
        expected_group = ["group order 6", "automorphism count 6", "isomorphic to input True"]
        if outputs["group_cli"][0] != 0 or outputs["group_cli"][1].splitlines()[:3] != expected_group:
            problems.append(f"group --preset s3 gave {outputs['group_cli']!r}")
        expected_wf = [f"atoms {WF_ATOMS} levels {WF_LEVELS}", "level sizes 3 8 256",
                       f"automorphism count {_factorial(WF_ATOMS)}"]
        if outputs["wf_cli"] != (0, "\n".join(expected_wf) + "\n"):
            problems.append(f"wf gave {outputs['wf_cli']!r}")
        if outputs["aut_lib"] != _factorial(LIB_AUT_ATOMS):
            problems.append(f"automorphisms of {LIB_AUT_ATOMS} atoms: order {outputs['aut_lib']!r}")
        if outputs["group_lib"] != ({"z4": (4, True), "v4": (4, True)}, False):
            problems.append(f"A_G for z4 and v4 gave {outputs['group_lib']!r}")
        if outputs["wf_lib"] != ([3, 8, 256], _factorial(WF_ATOMS), "automorphism"):
            problems.append(f"WF_2 over 3 atoms gave {outputs['wf_lib']!r}")
        return problems


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


WORKLOADS = {"many-small": ManySmall, "large-graph": LargeGraph, "symmetry": Symmetry}
