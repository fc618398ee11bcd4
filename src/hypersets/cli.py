"""Command-line front end: solve, eq, aut, wf, group, search-separation, repl.

Exit codes: 0 success, 1 syntax error, 2 semantic error, 3 size cap
exceeded, 10 "unequal" from eq, 11 "no witness" from search-separation.
Identical seeds and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .apg import DEFAULT_ISO_CAP, Apg, _bfs, _trim
from .boffa import Universe
from .canon import Semantics, automorphisms, equal, is_rigid, solve, to_dot
from .errors import (
    DuplicateDefinition,
    GroupTooLarge,
    HslSyntaxError,
    HypersetError,
    SizeLimitExceeded,
    UndefinedName,
)
from .grouplab import (
    GroupTable,
    PRESET_NAMES,
    aut_group_of,
    build_A_G,
    preset_group,
)
from .hsl import HslProgram, _printer, _pure_graph, flatten_into, parse, unparse
from .random_graphs import random_apg
from .wflab import (DEFAULT_ELEMENT_CAP, all_automorphisms, build_universe,
                    check_automorphism_cap, classify_map, extend_map, stage_sizes)

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_SEMANTIC = 2
EXIT_CAP = 3
EXIT_UNEQUAL = 10
EXIT_NO_WITNESS = 11

MODES = ("afa", "safa", "fafa", "boffa")


def _int_at_least(low: int):
    """An argparse type for integers >= low; a bad value exits 2."""

    def parse_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse_int


def _hs_cap() -> str:
    # A string default goes through --cap's type, so HS_CAP is validated like --cap.
    return os.environ.get("HS_CAP") or str(DEFAULT_ISO_CAP)


def _read_program(path: str) -> HslProgram:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


@dataclass(frozen=True)
class _Solution:
    """Each requested name's equality class and, with pictures, its
    canonical picture: ``order(name)`` lists the picture's nodes, root
    first, in one shared graph whose member sets are ``members``."""

    classes: dict
    members: dict = None
    order: Callable = None
    labels: Mapping = field(default_factory=dict)

    @functools.cached_property
    def _print(self):
        return _printer(self.members)

    def text(self, name: str) -> str:  # unparse(self.picture(name))
        return self._print(self.order(name))

    def picture(self, name: str) -> Apg:
        order = self.order(name)
        pos = {u: i for i, u in enumerate(order)}
        children = tuple([frozenset([pos[v] for v in self.members[u]]) for u in order])
        return Apg(children, 0, {pos[u]: self.labels[u] for u in order if u in self.labels})


def _solve_names(program: HslProgram, mode: str, cap: int, names=None, pictures=True):
    """A ``_Solution`` for ``names`` (every name by default), in name order.

    The pure modes ``solve`` the program's graph once; a name's picture is
    numbered by a walk of that graph from the name, in term order.  In
    Boffa mode a fresh universe's set ids are the classes.
    """
    if mode == "boffa":
        u = Universe()
        ids = flatten_into(program, u)
        names = list(ids) if names is None else names
        for name in names:
            if name not in ids:
                raise UndefinedName(f"name {name!r} is not defined")
        classes = {name: ids[name] for name in names}
        if not pictures:
            return _Solution(classes)
        ordered = {i: sorted(m) for i, m in u.sets.items()}
        return _Solution(classes, u.sets, lambda name: _bfs(ids[name], ordered), u.labels)
    children, keys = _pure_graph(program, names)
    kids, trans = _trim(children, keys.values())
    roots = [trans[key] for key in keys.values()]
    ids, class_of, members = solve(kids, roots, Semantics(mode), cap, pictures)
    classes = dict(zip(keys, ids))
    if not pictures:
        return _Solution(classes)
    ordered = [[trans[v] for v in children[key]] for key in trans]

    def order(name):
        firsts = [trans[keys[name]]]
        seen = {class_of[firsts[0]]: None}  # the classes met, in order
        for u in firsts:
            for v in ordered[u]:
                if class_of[v] not in seen:
                    seen[class_of[v]] = None
                    firsts.append(v)
        return list(seen)

    return _Solution(classes, members, order)


def cmd_solve(args) -> int:
    sol = _solve_names(_read_program(args.file), args.mode, args.cap)
    names = list(sol.classes)

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            for name in names:
                fh.write(to_dot(sol.picture(name), name=name))

    # One block, then one row of verdicts, at a time.
    out = sys.stdout
    if args.json:  # the bytes of json.dumps(doc, indent=2, sort_keys=True), keys sorted
        q = {name: json.dumps(name) for name in names}
        out.write('{\n  "mode": %s,\n  "pairs": [' % json.dumps(args.mode))
        for i, a in enumerate(names[:-1]):
            c = sol.classes[a]
            out.write(("," if i else "") + ",".join([
                f'\n    {{\n      "a": {q[a]},\n      "b": {q[b]},\n      "equal": '
                f'{"true" if sol.classes[b] == c else "false"}\n    }}' for b in names[i + 1:]]))
        out.write('\n  ],\n  "sets": {' if len(names) > 1 else '],\n  "sets": {')
        for i, name in enumerate(sorted(names)):
            out.write(f'{"," if i else ""}\n    {q[name]}: {json.dumps(sol.text(name))}')
        out.write("\n  }\n}\n" if names else "}\n}\n")
        return EXIT_OK

    gap = "\n" if len(names) > 1 else ""
    for name in names:
        out.write(f"set {name}\n{sol.text(name)}{gap}")
    for i, a in enumerate(names):
        c = sol.classes[a]
        out.write("".join([f"{'equal' if sol.classes[b] == c else 'distinct'} {a} {b}\n"
                           for b in names[i + 1:]]))
    out.write("" if names else "\n")
    return EXIT_OK


def cmd_eq(args) -> int:
    names = (args.name1, args.name2)
    program = _read_program(args.file)
    classes = _solve_names(program, args.mode, args.cap, names, pictures=False).classes
    verdict = classes[args.name1] == classes[args.name2]
    print("equal" if verdict else "unequal")
    return EXIT_OK if verdict else EXIT_UNEQUAL


def cmd_aut(args) -> int:
    sol = _solve_names(_read_program(args.file), args.mode, args.cap, (args.name,))
    group = automorphisms(sol.picture(args.name), cap=args.cap)
    if args.json:
        print(json.dumps(
            {"name": args.name, "order": group.order,
             "generators": [list(p) for p in group.generators]},
            indent=2, sort_keys=True))
    else:
        print(f"automorphism order {group.order}")
        for p in group.generators:
            print("generator " + " ".join(str(x) for x in p))
    return EXIT_OK


def _parse_cycles(text: str, n: int) -> dict[int, int]:
    """Disjoint cycles over atom indices: (0 1 2)(3 4) or (0 1 2) (3 4)."""
    parts = re.split(r"\(([^()]*)\)", text)  # cycle contents at odd places
    try:
        if any(p.strip() for p in parts[::2]):
            raise ValueError
        cycles = [[int(t) for t in c.replace(",", " ").split()] for c in parts[1::2]]
    except ValueError:
        raise ValueError(f"bad cycle notation {text!r}") from None
    sigma = {i: i for i in range(n)}
    atoms = [i for idx in cycles for i in idx]
    if any(not (0 <= i < n) for i in atoms):
        raise ValueError(f"cycle mentions unknown atom in {text!r}")
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"bad cycle notation {text!r}: cycles must be disjoint")
    for idx in cycles:
        for i, j in zip(idx, idx[1:] + idx[:1]):
            sigma[i] = j
    return sigma


def cmd_wf(args) -> int:
    # Every stage's size is known up front, so each cap is checked first,
    # and --perm is parsed before any stage is built.
    top = stage_sizes(args.atoms, args.levels, args.cap)[-1]
    sigma = None if args.perm is None else _parse_cycles(args.perm, args.atoms)
    target = None
    if args.embed_into is not None:
        if args.embed_into < args.atoms:
            raise ValueError("--embed-into needs at least as many atoms")
        if args.embed_into > args.atoms:  # an equal stage is the source's own
            target = build_universe(args.embed_into, args.levels, cap=args.cap)
    elif sigma is None:
        check_automorphism_cap(top)
    u = build_universe(args.atoms, args.levels, cap=args.cap)
    doc = {
        "atoms": args.atoms,
        "levels": args.levels,
        "level_sizes": [len(level) for level in u.levels],
    }
    rep = None
    if sigma is not None:
        rep = classify_map(u, extend_map(u, sigma))
    elif args.embed_into is not None:
        sigma = {i: i for i in range(args.atoms)}
        rep = classify_map(u, extend_map(u, sigma, into=target))
    else:
        doc["automorphism_count"] = all_automorphisms(u).count
    if rep is not None:
        doc["map"] = {
            "verdict": rep.verdict,
            "membership_exact": rep.membership_exact,
            "pure_sets_fixed": rep.pure_sets_fixed,
            "rank_preserved": rep.rank_preserved,
            "fixed_points": rep.fixed_points,
        }

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"atoms {doc['atoms']} levels {doc['levels']}")
    print("level sizes " + " ".join(str(s) for s in doc["level_sizes"]))
    if "map" in doc:
        m = doc["map"]
        print(f"verdict {m['verdict']}")
        print(f"membership exact {m['membership_exact']}")
        print(f"pure sets fixed {m['pure_sets_fixed']}")
        print(f"rank preserved {m['rank_preserved']}")
        if m["fixed_points"] is not None:
            print(f"fixed points {m['fixed_points']}")
    if "automorphism_count" in doc:
        print(f"automorphism count {doc['automorphism_count']}")
    return EXIT_OK


def _load_group(args) -> GroupTable:
    if args.preset:
        rows = preset_group(args.preset).table
    else:
        with open(args.table, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("table file nests too deeply") from None
        rows = data.get("table") if isinstance(data, dict) else None
        if not isinstance(rows, list):
            raise ValueError('table file must hold {"order": n, "table": n rows of n integers}')
        if type(data.get("order")) is not int or data["order"] != len(rows):
            raise ValueError("order field does not match table size")
    # GroupTable checks associativity in O(n^3), so the cap comes first.
    if len(rows) > args.group_cap:
        raise GroupTooLarge(f"group order {len(rows)} exceeds cap {args.group_cap}")
    return GroupTable.from_rows(rows)


def cmd_group(args) -> int:
    group = _load_group(args)
    rep = aut_group_of(build_A_G(group), cap=args.cap)
    iso = rep.table == group  # aut_group_of labels Aut(A_G) by left translations
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(rep.picture, name="A_G"))
    doc = {
        "group_order": group.order,
        "automorphism_count": rep.automorphism_count,
        "isomorphic_to_input": iso,
        "picture_nodes": rep.picture.node_count,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"group order {group.order}")
        print(f"automorphism count {rep.automorphism_count}")
        print(f"isomorphic to input {iso}")
        print(f"picture nodes {rep.picture.node_count}")
    return EXIT_OK


def cmd_search_separation(args) -> int:
    if args.mode_a == args.mode_b:
        raise ValueError("modes must differ")
    if args.max_nodes > args.cap:
        raise SizeLimitExceeded(f"--max-nodes {args.max_nodes} exceeds the cap {args.cap}")
    sem_a, sem_b = Semantics(args.mode_a), Semantics(args.mode_b)
    rng = random.Random(args.seed)
    for trial in range(args.budget):
        g1 = random_apg(rng, args.max_nodes)
        g2 = random_apg(rng, args.max_nodes)
        ea = equal(g1, g2, sem_a, cap=args.cap)
        eb = equal(g1, g2, sem_b, cap=args.cap)
        if ea != eb:
            print(f"# witness at trial {trial}: "
                  f"{args.mode_a} says {ea}, {args.mode_b} says {eb}")
            print("# graph A")
            print(unparse(g1).rstrip("\n"))
            print("# graph B")
            print(unparse(g2).replace("x", "y").rstrip("\n"))
            return EXIT_OK
    print(f"no witness within budget {args.budget}")
    return EXIT_NO_WITNESS


# REPL directives and their usage lines; the operand count is checked first.
REPL_USAGE = {
    ":eq": ":eq A B",
    ":canon": ":canon A",
    ":aut": ":aut A",
    ":rigid": ":rigid A",
    ":picture": ":picture A FILE",
    ":mode": ":mode M",
    ":quit": ":quit",
}


def cmd_repl(args) -> int:
    mode, cap = args.mode, args.cap
    statements: dict[str, object] = {}  # name -> statement; later lines replace
    out = sys.stdout

    def solve_names(names, pictures=True):
        program = HslProgram(tuple(statements.values()))
        return _solve_names(program, mode, cap, names, pictures)

    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            if not line.startswith(":"):
                for stmt in parse(line).statements:
                    statements[stmt.name] = stmt
                continue
            directive, *operands = line.split()
            usage = REPL_USAGE.get(directive)
            if usage is None:
                out.write(f"unknown directive {directive}\n")
            elif len(operands) != len(usage.split()) - 1:
                out.write(f"usage: {usage}\n")
            elif directive == ":quit":
                break
            elif directive == ":mode":
                if operands[0] not in MODES:
                    raise ValueError(f"invalid mode {operands[0]!r}")
                mode = operands[0]
                out.write(f"mode {operands[0]}\n")
            elif directive == ":eq":
                a, b = operands
                classes = solve_names(operands, pictures=False).classes
                out.write(("equal" if classes[a] == classes[b] else "unequal") + "\n")
            else:
                name = operands[0]
                sol = solve_names(operands[:1])
                if directive == ":canon":
                    out.write(sol.text(name))
                elif directive == ":aut":
                    out.write(f"order {automorphisms(sol.picture(name), cap=cap).order}\n")
                elif directive == ":rigid":
                    rigid = is_rigid(sol.picture(name), cap=cap)
                    out.write(("rigid" if rigid else "not rigid") + "\n")
                else:
                    with open(operands[1], "w", encoding="utf-8") as fh:
                        fh.write(to_dot(sol.picture(name), name=name))
                    out.write(f"wrote {operands[1]}\n")
        except BrokenPipeError:
            raise  # a closed stdout ends the session
        except (HypersetError, ValueError, OSError) as exc:
            out.write(f"error: {exc}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypersets",
        description="A desk-scale laboratory for non-well-founded set theory.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    cap_actions = top.hs_cap_actions = []  # --cap actions main re-reads from HS_CAP

    def add_common(p, mode=True):
        if mode:
            p.add_argument("--mode", choices=MODES, default="afa")
        cap_actions.append(p.add_argument(
            "--cap", type=_int_at_least(1), default=_hs_cap(),
            help="node cap for FAFA partitions, isomorphism and automorphism search"))

    p = sub.add_parser("solve", help="canonicalize every named set in a program")
    p.add_argument("file", help=".hs-set program, or - for stdin")
    add_common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="write DOT pictures to this path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eq", help="decide equality of two named sets")
    p.add_argument("file")
    p.add_argument("name1")
    p.add_argument("name2")
    add_common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("aut", help="automorphism group of a named set")
    p.add_argument("file")
    p.add_argument("name")
    add_common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("wf", help="cumulative hierarchy over Quine atoms")
    p.add_argument("--atoms", type=_int_at_least(0), required=True)
    p.add_argument("--levels", type=_int_at_least(0), required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--perm", help="atom permutation in cycle notation, e.g. '(0 1)'")
    target.add_argument("--embed-into", type=_int_at_least(0),
                        help="embed into a stage over this many atoms")
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_ELEMENT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_wf)

    p = sub.add_parser("group", help="build A_G and verify Aut(A_G) = G")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--table", help='JSON file {"order": n, "table": [[...]]}')
    p.add_argument("--group-cap", type=_int_at_least(1), default=8)
    add_common(p, mode=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("search-separation",
                       help="random search for graphs where two modes disagree")
    p.add_argument("mode_a", choices=MODES[:3])
    p.add_argument("mode_b", choices=MODES[:3])
    p.add_argument("--max-nodes", type=_int_at_least(1), default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_int_at_least(0), default=10_000)
    cap_actions.append(p.add_argument("--cap", type=_int_at_least(1), default=_hs_cap()))
    p.set_defaults(func=cmd_search_separation)

    p = sub.add_parser("repl", help="interactive session reading stdin")
    add_common(p)
    p.set_defaults(func=cmd_repl)

    return top


_cached_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _cached_parser()
    for action in parser.hs_cap_actions:  # HS_CAP is read on every call
        action.default = _hs_cap()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, however it is buffered
        return code
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit; what is left goes nowhere.
        with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (HslSyntaxError, DuplicateDefinition) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except SizeLimitExceeded as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HypersetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
