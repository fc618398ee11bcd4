"""The hyperset language: systems of possibly self-referential set equations.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    stmt := NAME "=" term ";" | "atom" NAME ";"
    term := NAME | "{" [term ("," term)*] "}"
          | "<" term "," term {"," term} ">" | NAT

Tuples desugar to right-nested Kuratowski pairs, naturals to von Neumann
numerals.  Forward references are allowed; that is the point of set
equations.  ``atom`` declarations are only meaningful under Boffa
semantics, where they mint labeled Quine atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .apg import Apg, _bfs, _postorder, trim_to_accessible
from .boffa import Universe
from .errors import (
    AtomOutsideBoffa,
    DuplicateDefinition,
    HslSyntaxError,
    SizeLimitExceeded,
    UndefinedName,
)

FILE_EXTENSION = ".hs-set"
# Numeral k desugars to k(k+1)/2 edges; past this many edges in one
# program's graph, flattening raises SizeLimitExceeded.
FLATTEN_EDGE_BUDGET = 1_000_000


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class SetTerm:
    elems: tuple["Term", ...]


@dataclass(frozen=True)
class TupleTerm:
    elems: tuple["Term", ...]  # length >= 2


@dataclass(frozen=True)
class NatTerm:
    value: int


# PEP 604 unions: a typing.Union subscription would sit in typing's
# module-level cache and keep these classes, and this module with them,
# alive after the package is reloaded.
Term = NameRef | SetTerm | TupleTerm | NatTerm


@dataclass(frozen=True)
class Definition:
    name: str
    term: Term


@dataclass(frozen=True)
class AtomDecl:
    name: str


Statement = Definition | AtomDecl


@dataclass(frozen=True)
class HslProgram:
    statements: tuple[Statement, ...]

    @property
    def defined_names(self) -> list[str]:
        return [s.name for s in self.statements if isinstance(s, Definition)]

    @property
    def atom_names(self) -> list[str]:
        return [s.name for s in self.statements if isinstance(s, AtomDecl)]


# --- parsing ----------------------------------------------------------------

_PUNCT = set("{}<>=,;")


def _tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _PUNCT:
            yield (c, c, line, col)
            col += 1
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            yield ("NAT", int(text[i:j]), line, col)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            yield ("ATOMKW" if word == "atom" else "NAME", word, line, col)
            col += j - i
            i = j
            continue
        raise HslSyntaxError(f"unexpected character {c!r}", line, col)
    yield ("EOF", None, line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        kind_, value, line, col = self.peek()
        if kind_ != kind:
            shown = repr(value) if value is not None else "end of input"
            raise HslSyntaxError(f"expected {kind!r}, found {shown}", line, col)
        return self.advance()

    def program(self) -> HslProgram:
        statements: list[Statement] = []
        seen: set[str] = set()
        while self.peek()[0] != "EOF":
            kind, _, line, col = self.peek()
            if kind == "ATOMKW":
                self.advance()
                name = self.expect("NAME")[1]
                self.expect(";")
                stmt: Statement = AtomDecl(name)
            elif kind == "NAME":
                name = self.advance()[1]
                self.expect("=")
                term = _run(self.term())
                self.expect(";")
                stmt = Definition(name, term)
            else:
                raise HslSyntaxError("expected a definition or atom declaration", line, col)
            if stmt.name in seen:
                raise DuplicateDefinition(f"name {stmt.name!r} defined twice")
            seen.add(stmt.name)
            statements.append(stmt)
        return HslProgram(tuple(statements))

    def term(self):
        """Generator for ``_run``: yields a generator for each sub-term and
        receives its result."""
        kind, value, line, col = self.peek()
        if kind == "NAME":
            self.advance()
            return NameRef(value)
        if kind == "NAT":
            self.advance()
            return NatTerm(value)
        if kind == "{":
            self.advance()
            elems: list[Term] = []
            if self.peek()[0] != "}":
                elems.append((yield self.term()))
                while self.peek()[0] == ",":
                    self.advance()
                    elems.append((yield self.term()))
            self.expect("}")
            return SetTerm(tuple(elems))
        if kind == "<":
            self.advance()
            elems = [(yield self.term())]
            while self.peek()[0] == ",":
                self.advance()
                elems.append((yield self.term()))
            self.expect(">")
            if len(elems) < 2:
                raise HslSyntaxError("tuples need at least two components", line, col)
            return TupleTerm(tuple(elems))
        shown = repr(value) if value is not None else "end of input"
        raise HslSyntaxError(f"expected a term, found {shown}", line, col)


def parse(text: str) -> HslProgram:
    return _Parser(text).program()


def _run(gen):
    """The return value of a generator that yields a generator for each
    recursive call and receives its result.  The calls run on an explicit
    stack, so nesting depth is not bounded by Python's recursion limit."""
    stack = [gen]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


# --- flattening -------------------------------------------------------------

class _GraphBuilder:
    """Desugars a program into one big membership graph over node keys."""

    def __init__(self, program: HslProgram, old_names=None, old_children=None):
        # Names bound before the program, to keys of the old graph.
        self.children: dict = dict(old_children or {})
        self.serial = 0
        self.edges = 0  # edges emitted so far, held to FLATTEN_EDGE_BUDGET
        self.alias: dict[str, object] = dict(old_names or {})  # name -> key or alias chain
        bound: set[str] = set()
        for stmt in program.statements:
            if stmt.name in bound:
                raise DuplicateDefinition(f"name {stmt.name!r} defined twice")
            bound.add(stmt.name)
        known = bound | set(self.alias)
        for stmt in program.statements:
            if isinstance(stmt, Definition):
                self.alias[stmt.name] = _run(self._term_key(stmt.term, known))
        self._resolve_aliases()

    def _fresh(self, tag: str):
        self.serial += 1
        return (tag, self.serial)

    def _term_key(self, term: Term, known: set[str]):
        """Generator for ``_run``: the node key of a term."""
        if isinstance(term, NameRef):
            if term.name not in known:
                raise UndefinedName(f"name {term.name!r} is never defined")
            return ("name", term.name)
        if isinstance(term, SetTerm):
            key = self._fresh("set")
            kids = []
            for t in term.elems:
                kids.append((yield self._term_key(t, known)))
            self.children[key] = kids
            self.edges += len(kids)
            return key
        if isinstance(term, TupleTerm):
            rest = term.elems
            right = yield self._term_key(rest[-1], known)
            for t in reversed(rest[:-1]):
                right = self._pair((yield self._term_key(t, known)), right)
            return right
        if isinstance(term, NatTerm):
            return self._numeral(term.value)
        raise TypeError(f"unknown term {term!r}")

    def _pair(self, a, b):
        """Kuratowski pair {{a}, {a, b}}; collapses to {{a}} when a is b."""
        w1 = self._fresh("set")
        self.children[w1] = [a]
        p = self._fresh("set")
        if a == b:
            self.children[p] = [w1]
        else:
            w2 = self._fresh("set")
            self.children[w2] = [a, b]
            self.children[p] = [w1, w2]
        self.edges += 2 if a == b else 5
        return p

    def _numeral(self, k: int):
        # The one construct that grows faster than the program text.
        self.edges += k * (k + 1) // 2
        if self.edges > FLATTEN_EDGE_BUDGET:
            raise SizeLimitExceeded(
                f"numeral {k} takes the desugared graph past {FLATTEN_EDGE_BUDGET} edges"
            )
        base = self.serial + 1
        self.serial += k + 1
        for i in range(k + 1):
            self.children[("num", base, i)] = [("num", base, j) for j in range(i)]
        return ("num", base, k)

    def _resolve_aliases(self):
        def target(name: str):
            seen = []
            key: object = ("name", name)
            while isinstance(key, tuple) and key[0] == "name":
                nm = key[1]
                if nm in seen:
                    cycle = " -> ".join(seen + [nm])
                    raise ValueError(f"alias cycle {cycle} has no unique solution")
                seen.append(nm)
                key = self.alias[nm]
            return key

        resolved = {name: target(name) for name in self.alias}
        self.node_of = resolved
        self.children = {
            key: [
                resolved[c[1]] if isinstance(c, tuple) and c[0] == "name" else c
                for c in kids
            ]
            for key, kids in self.children.items()
        }


def flatten(program: HslProgram, names: Optional[Iterable[str]] = None) -> dict[str, Apg]:
    """One rooted APG per defined name, or per name in ``names`` (pure
    AFA/SAFA/FAFA modes), each trimmed on its own out of the program's graph
    (``_pure_graph``), so each costs O(its graph)."""
    children, keys = _pure_graph(program, names)
    return {name: trim_to_accessible(children, key)[0] for name, key in keys.items()}


def _pure_graph(program: HslProgram, names: Optional[Iterable[str]] = None):
    """The program's graph for the pure modes (node key -> member keys, in
    term order) and the node key of each defined name or name in ``names``."""
    if program.atom_names:
        raise AtomOutsideBoffa(
            "atom declarations need Boffa semantics; the isomorphism-flavoured "
            "theories have at most one Quine atom"
        )
    builder = _GraphBuilder(program)
    keys = {}
    for name in program.defined_names if names is None else names:
        if name not in builder.node_of:
            raise UndefinedName(f"name {name!r} is not defined")
        keys[name] = builder.node_of[name]
    return builder.children, keys


def flatten_into(
    program: HslProgram, universe: Universe, given: Optional[Mapping[str, int]] = None
) -> dict[str, int]:
    """Insert the program into a Boffa universe; returns name -> set-id for
    its defined and declared names.

    ``given`` binds further names to sets already in the universe.  Those
    sets with their transitive closure, and the declared atoms, are the old
    keys ``("old", id or name)``; atoms mint fresh labeled Quine atoms once
    every check has passed.  Literal duplicates in the desugared graph are
    merged first (the same members force the same set), then the graph is
    realized over the old keys.  Old keys win every merge and their child
    sets differ, so each is its own representative.
    """
    given = given or {}
    defined, atoms = program.defined_names, program.atom_names
    for name, i in given.items():
        if name in defined or name in atoms:
            raise DuplicateDefinition(f"given name {name!r} is also defined")
        if i not in universe:
            raise ValueError(f"given id {i} for {name!r} is not in the universe")
    closure = set().union(*map(universe._transitive_closure, given.values()))
    old_children = {("old", i): [("old", c) for c in universe.members(i)] for i in closure}
    old_children.update({("old", a): [("old", a)] for a in atoms})
    old_names = {name: ("old", k) for name, k in [*given.items(), *zip(atoms, atoms)]}
    builder = _GraphBuilder(program, old_names, old_children)
    rep = _merge_duplicates(builder.children)
    old = {("old", i): i for i in closure}
    old.update({("old", a): universe.add_quine_atom(label=a) for a in atoms})
    phi = universe.realize(builder.children, old)
    return {name: phi[rep[builder.node_of[name]]] for name in defined + atoms}


def _merge_duplicates(children: dict) -> dict:
    """Merge nodes with literally identical child sets until none remain,
    mutating ``children``; returns the key -> representative map.

    Extensionality forces these identifications; distinct self-membered
    nodes survive because their child sets differ as key sets.  Old keys
    (declared atoms and given sets) win representative elections so they
    keep their identity.
    """
    rep = {k: k for k in children}
    while True:
        groups: dict[frozenset, list] = {}
        for k, kids in children.items():
            groups.setdefault(frozenset(kids), []).append(k)
        merges = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            winner = next((k for k in members if k[0] == "old"), members[0])
            for k in members:
                if k is not winner:
                    merges[k] = winner
        if not merges:
            return rep
        children_new: dict = {}
        for k, kids in children.items():
            if k in merges:
                continue
            children_new[k] = [merges.get(c, c) for c in kids]
        children.clear()
        children.update(children_new)
        for k, r in rep.items():
            rep[k] = merges.get(r, r)


# --- unparsing ---------------------------------------------------------------

def unparse(g: Apg) -> str:
    """Equation system reproducing g up to pointed isomorphism, its nodes
    named x0, x1, ... in breadth-first order over ascending node ids.

    Numerals and pairs are printed in sugared form when the sugar is safe:
    the desugared interior nodes must be private to the construct, so that
    re-flattening yields an isomorphic graph.  Numerals win over pairs.
    """
    return _printer(dict(enumerate(g.children)))(_bfs(g.root, [sorted(k) for k in g.children]))


def _printer(members: dict):
    """``unparse`` for many pictures in one graph, given as node -> member
    set: its numeral values and Kuratowski layouts are read once, and the
    function returned prints the picture whose nodes, root first, are
    ``order``.  Parents come from the picture's own edges, never the whole
    graph's (0 is a member of most sets), so a picture costs O(picture).
    """
    num_val = _numeral_values(members)
    pair = {u: _pair_parts(u, members.__getitem__) for u in members}

    def picture(order) -> str:
        root = order[0]
        pos = {u: i for i, u in enumerate(order)}
        parents: dict = {u: set() for u in order}
        for u in order:
            for v in members[u]:
                parents[v].add(u)
        skip, sugar = set(), {}
        for u in order:
            k = num_val[u]
            if k is None or u in skip:  # inside a numeral already sugared
                continue
            # u and its k children already make k + 1 nodes
            reach = _reach(members, u, k + 1)
            if reach is None:
                continue
            interior = reach - {u}
            if root in interior or any(not parents[d] <= reach for d in interior):
                continue
            sugar[u] = str(k)
            skip |= interior
        for u in order:
            if u in sugar or u in skip or pair[u] is None:
                continue
            a, b, w1, w2 = pair[u]
            if {w1, w2} & {a, b, root} or skip & {a, b, w1, w2} \
                    or not parents[w1] == {u} == parents[w2]:
                continue
            sugar[u] = f"<x{pos[a]}, x{pos[b]}>"
            skip |= {w1, w2}
        lines = []
        for u in order:
            if u not in skip:
                body = sugar.get(u) or "{%s}" % ", ".join(
                    f"x{i}" for i in sorted([pos[v] for v in members[u]]))
                lines.append(f"x{pos[u]} = {body};")
        return "\n".join(lines) + "\n"

    return picture


def _reach(members, u, limit: int) -> Optional[set]:
    """The nodes reachable from u, u included, or None once there are more
    than ``limit`` of them."""
    seen = {u}
    stack = [u]
    while stack:
        for v in members[stack.pop()]:
            if v not in seen:
                if len(seen) == limit:
                    return None
                seen.add(v)
                stack.append(v)
    return seen


def _numeral_values(members: dict) -> dict:
    """num_val[u] = k iff u's members carry values 0..k-1, one each."""
    vals: dict = dict.fromkeys(members)
    for u in _postorder(members, members):
        kid_vals = [vals[v] for v in members[u]]
        if None not in kid_vals and sorted(kid_vals) == list(range(len(kid_vals))):
            vals[u] = len(kid_vals)
    return vals


def _pair_parts(p, members):
    """(a, b, w1, w2) when p = {w1, w2} with w1 = {a} and w2 = {a, b}, a != b,
    the layout ``_GraphBuilder._pair`` writes; else None.  ``members`` maps a
    node to its member set."""
    kids = members(p)
    if len(kids) == 2:
        w1, w2 = kids
        if len(members(w1)) != 1:
            w1, w2 = w2, w1
        if len(members(w1)) == 1 and len(members(w2)) == 2:
            (a,) = members(w1)
            if a in members(w2):
                (b,) = members(w2) - {a}
                return a, b, w1, w2
    return None
