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

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Mapping, Optional

from .apg import Apg, _bfs, _postorder, _reach, trim_to_accessible
from .boffa import Universe
from .errors import (
    AtomOutsideBoffa,
    DuplicateDefinition,
    HslSyntaxError,
    SizeLimitExceeded,
    UndefinedName,
)

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

# One token per match, whitespace skipped between matches: a comment, a
# punctuation mark, a numeral (Unicode decimal digits), a word, or any other
# character.  A word is a name if it starts with a letter or "_".
_TOKEN = re.compile(r"#[^\n]*|[{}<>=,;]|\d+|\w+|\S")
_EOF = " "  # the token after the last: no token holds whitespace


def parse(text: str) -> HslProgram:
    """The program in ``text``, read in one pass over its tokens.

    Lexical errors (a character that starts no token, a numeral past
    Python's ``int`` digit limit) come before every other error, the first
    in text order winning: the parser checks each token it reads, and
    ``_fail`` checks the rest before it reports anything else.
    """
    toks = _TOKEN.findall(text)
    if "#" in text:
        toks = [t for t in toks if t[0] != "#"]
    n = len(toks)
    toks.append(_EOF)
    statements: list[Statement] = []
    seen: set[str] = set()
    i = 0
    while i < n:
        name = toks[i]
        if name == "atom":
            name = toks[i + 1]
            if not _is_name(name):
                _fail(text, toks, i + 1, "expected 'NAME'")
            stmt: Statement = AtomDecl(name)
            i += 2
        elif _is_name(name):
            if toks[i + 1] != "=":
                _fail(text, toks, i + 1, "expected '='")
            term, i = _term(text, toks, i + 2)
            stmt = Definition(name, term)
        else:
            _fail(text, toks, i, "expected a definition or atom declaration", found=False)
        if toks[i] != ";":
            _fail(text, toks, i, "expected ';'")
        i += 1
        if name in seen:
            _check_tokens(text, toks)
            raise DuplicateDefinition(f"name {name!r} defined twice")
        seen.add(name)
        statements.append(stmt)
    return HslProgram(tuple(statements))


def _is_name(t: str) -> bool:
    return (t[0].isalpha() or t[0] == "_") and t != "atom"


def _term(text: str, toks: list, i: int):
    """The term that starts at token i, and the index of the token after
    it.  Open sets and tuples wait on an explicit stack as (members so far,
    closing token, index of the opening token)."""
    stack = []
    while True:
        t = toks[i]
        i += 1
        if t == "{" and toks[i] == "}":
            term = SetTerm(())
            i += 1
        elif t == "{" or t == "<":
            stack.append(([], "}" if t == "{" else ">", i - 1))
            continue
        elif t[0].isdecimal():
            term = NatTerm(int(t))
        elif _is_name(t):
            term = NameRef(t)
        else:
            _fail(text, toks, i - 1, "expected a term")
        while stack:
            elems, closer, at = stack[-1]
            elems.append(term)
            t = toks[i]
            i += 1
            if t == ",":
                break
            if t != closer:
                _fail(text, toks, i - 1, f"expected {closer!r}")
            stack.pop()
            if closer == "}":
                term = SetTerm(tuple(elems))
            elif len(elems) < 2:
                _fail(text, toks, at, "tuples need at least two components", found=False)
            else:
                term = TupleTerm(tuple(elems))
        else:
            return term, i


def _check_tokens(text: str, toks: list):
    """Raise the first lexical error among the tokens, if there is one."""
    for k, t in enumerate(toks[:-1]):
        c = t[0]
        if c.isdecimal():
            int(t)
        elif not (c.isalpha() or c == "_" or c in "{}<>=,;"):
            raise HslSyntaxError(f"unexpected character {c!r}", *_where(text, k))


def _fail(text: str, toks: list, k: int, message: str, found: bool = True):
    """Raise the syntax error ``message`` at token k, unless the tokens
    hold a lexical error."""
    _check_tokens(text, toks)
    if found:
        t = toks[k]
        shown = "end of input" if t is _EOF else repr(int(t) if t[0].isdecimal() else t)
        message = f"{message}, found {shown}"
    raise HslSyntaxError(message, *_where(text, k))


def _where(text: str, k: int) -> tuple[int, int]:
    """Line and column of token k, comments not counted, or of the end of
    input when k is past the last token.  Only "\\n" starts a line; every
    other character takes one column.  The end of input stops before a
    comment on the last line."""
    starts = [m.start() for m in _TOKEN.finditer(text) if text[m.start()] != "#"]
    comment = text.find("#", text.rfind("\n") + 1)
    at = starts[k] if k < len(starts) else len(text) if comment < 0 else comment
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# --- flattening -------------------------------------------------------------

_PAIR = object()  # in _GraphBuilder._term_key's work: pair the last two keys


class _GraphBuilder:
    """Desugars a program into one big membership graph over node keys."""

    def __init__(self, program: HslProgram, old_names=None, old_children=None):
        # Names bound before the program, to keys of the old graph.
        self.children: dict = dict(old_children or {})
        self.serial = 0
        self.edges = 0  # edges emitted so far, held to FLATTEN_EDGE_BUDGET
        self.alias: dict[str, object] = dict(old_names or {})  # name -> key or ("name", name)
        self.named: list[list] = []  # the child lists that hold a ("name", name)
        self.nums: list = []  # nums[i]: the key of numeral i, shared by every literal
        bound: set[str] = set()
        for stmt in program.statements:
            if stmt.name in bound:
                raise DuplicateDefinition(f"name {stmt.name!r} defined twice")
            bound.add(stmt.name)
        known = bound | set(self.alias)
        for stmt in program.statements:
            if isinstance(stmt, Definition):
                self.alias[stmt.name] = self._term_key(stmt.term, known)
        self._resolve_aliases()

    def _fresh(self, tag: str):
        self.serial += 1
        return (tag, self.serial)

    def _set(self, key, kids: list):
        # A list that holds a name is patched once the names are resolved.
        self.children[key] = kids
        self.edges += len(kids)
        for k in kids:
            if k[0] == "name":
                self.named.append(kids)
                break
        return key

    def _term_key(self, term: Term, known: set[str]):
        """The node key of a term, computed from a stack of work: terms, the
        mark ``_PAIR`` and (set key, member count) closings.  Serials are
        taken as by recursion: a set's key before its members', a tuple's
        components right to left, each paired as soon as it is keyed."""
        todo, keys = [term], []
        while todo:
            t = todo.pop()
            if t is _PAIR:
                a = keys.pop()
                keys.append(self._pair(a, keys.pop()))
            elif type(t) is tuple:
                key, n = t
                kids = keys[len(keys) - n:]
                del keys[len(keys) - n:]
                keys.append(self._set(key, kids))
            elif isinstance(t, NameRef):
                if t.name not in known:
                    raise UndefinedName(f"name {t.name!r} is never defined")
                keys.append(("name", t.name))
            elif isinstance(t, SetTerm):
                todo.append((self._fresh("set"), len(t.elems)))
                todo.extend(reversed(t.elems))
            elif isinstance(t, TupleTerm):
                for e in t.elems[:-1]:
                    todo += (_PAIR, e)
                todo.append(t.elems[-1])
            elif isinstance(t, NatTerm):
                keys.append(self._numeral(t.value))
            else:
                raise TypeError(f"unknown term {t!r}")
        return keys[0]

    def _pair(self, a, b):
        """Kuratowski pair {{a}, {a, b}}; collapses to {{a}} when a and b are
        one name.  Two numeral literals keep the full layout, so that keys
        and edge counts do not depend on the numerals sharing one chain."""
        w1 = self._fresh("set")
        p = self._fresh("set")
        self._set(w1, [a])
        if a == b and a[0] == "name":
            return self._set(p, [w1])
        return self._set(p, [w1, self._set(self._fresh("set"), [a, b])])

    def _numeral(self, k: int):
        # The one construct that grows faster than the program text.  Every
        # literal k names one set, so the program's numerals share one chain,
        # extended past the largest value so far with this occurrence's keys.
        # Serials and the budget still count a whole chain per occurrence.
        self.edges += k * (k + 1) // 2
        if self.edges > FLATTEN_EDGE_BUDGET:
            raise SizeLimitExceeded(
                f"numeral {k} takes the desugared graph past {FLATTEN_EDGE_BUDGET} edges"
            )
        base = self.serial + 1
        self.serial += k + 1
        nums = self.nums
        for i in range(len(nums), k + 1):
            nums.append(("num", base, i))
            self.children[nums[i]] = nums[:i]
        return nums[k]

    def _resolve_aliases(self):
        """``node_of``: each name's node key, found by following its alias
        chain; then each ("name", name) in a child list becomes that key.
        Names resolve in ``self.alias`` order, and a chain stops at the
        first name resolved before, so each name is walked once."""
        node_of: dict = {}
        for name, key in self.alias.items():
            walk = {name: None}  # the names on this chain, in order
            while key[0] == "name" and key[1] not in node_of:
                if key[1] in walk:
                    cycle = " -> ".join([*walk, key[1]])
                    raise ValueError(f"alias cycle {cycle} has no unique solution")
                walk[key[1]] = None
                key = self.alias[key[1]]
            node_of.update(dict.fromkeys(walk, node_of[key[1]] if key[0] == "name" else key))
        self.node_of = node_of
        for kids in self.named:
            for j, c in enumerate(kids):
                if c[0] == "name":
                    kids[j] = node_of[c[1]]


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
    every check has passed.  Duplicates in the desugared graph are merged
    first (the same members force the same set), by congruence closure in
    O(m log n) re-signings (``_merge_duplicates``), so deep copies of one
    set cost about linear time; then the graph is realized over the old
    keys.  Old keys win every merge and their child sets differ, so each
    is its own representative.
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
    """Merge nodes whose child sets are equal once merged nodes are
    identified, until none remain, mutating ``children`` (each surviving
    key keeps its place, its kids replaced by their representatives);
    returns the key -> representative map.

    Extensionality forces these identifications; distinct self-membered
    nodes survive because their child sets differ as key sets.  Each class
    elects its first old key (a declared atom or given set), else its
    earliest-inserted key, so old keys keep their identity.

    This is the least fixpoint, found by congruence closure (Downey, Sethi
    & Tarjan, JACM 1980).  A key's signature is the set of its kids' class
    ids; a table maps each signature to the first key signed with it, and
    a key whose signature is taken joins that key's class.  A merge moves
    the smaller class into the larger, and the users of the moved keys are
    re-signed after each round of merges: found by one scan in the first
    round, from a users index after it.  A key moves O(log n) times, so
    there are O(m log n) re-signings; each maps only the merged-away ids of
    a signature and copies the rest.  A signature that names a merged-away
    id is stale, but no key is signed with it again.
    """
    cls = {k: k for k in children}  # each key's class id: a key of the class
    sig = {}  # each key's signature when last signed
    table: dict = {}  # signature -> the first key signed with it
    moved = []  # the keys whose class changed since their users were signed
    for k, kids in children.items():
        s = sig[k] = frozenset(kids)
        w = table.setdefault(s, k)
        if w is not k:
            cls[k] = w
            moved.append(k)
    if not moved:
        return cls
    members: dict = {}  # class id -> its keys, for classes of two or more
    for k in moved:
        members.setdefault(cls[k], [cls[k]]).append(k)
    retired = set(moved)  # the class ids merged away since the last signing
    users = None  # key -> the keys that hold it
    while moved:
        if users is None:
            signing = [u for u, s in sig.items() if not retired.isdisjoint(s)]
        else:
            signing = dict.fromkeys([u for x in moved for u in users[x]])
        pending = []
        for u in signing:
            gone = sig[u] & retired
            s = sig[u] = (sig[u] - gone) | {cls[c] for c in gone}
            w = table.setdefault(s, u)
            if cls[w] is not cls[u]:
                pending.append((w, u))
        if pending and users is None:
            users = {k: [] for k in children}
            for k, kids in children.items():
                for c in kids:
                    users[c].append(k)
        moved, retired = [], set()
        for w, u in pending:
            a, b = cls[w], cls[u]
            if a is b:
                continue
            big, small = members.get(a, [a]), members.pop(b, [b])
            if len(big) < len(small):
                a, b, big, small = b, a, small, big
                members.pop(b, None)
            big += small
            members[a] = big
            retired.add(b)
            for x in small:
                cls[x] = a
            moved += small
    rank = dict(zip(children, count()))
    rep = cls
    for ks in members.values():
        elect = min([k for k in ks if k[0] == "old"] or ks, key=rank.__getitem__)
        for k in ks:
            rep[k] = elect
    merged = {k for k, r in rep.items() if r is not k}
    survivors = {k: kids if merged.isdisjoint(kids) else [rep[c] for c in kids]
                 for k, kids in children.items() if k not in merged}
    children.clear()
    children.update(survivors)
    return rep


# --- unparsing ---------------------------------------------------------------

def unparse(g: Apg) -> str:
    """Equation system reproducing g up to pointed isomorphism, its nodes
    named x0, x1, ... in breadth-first order over ascending node ids.

    Numerals and pairs are printed in sugared form when the sugar is safe:
    the desugared interior nodes must be private to the construct, so that
    re-flattening yields an isomorphic graph.  Numerals win over pairs.  A
    program's numeral literals share one chain, so at most one numeral is
    sugared: the first in order whose interior is private.
    """
    return _printer(dict(enumerate(g.children)))(_bfs(g.root, [sorted(k) for k in g.children]))


def _printer(members: dict):
    """``unparse`` for many pictures in one graph, given as node -> member
    set: the function returned prints the picture whose nodes, root first,
    are ``order``.  What does not depend on the picture is found once:
    numeral values and Kuratowski layouts up front, the label strings
    ``x0``, ``x1``, ... and each numeral's reach, interior and in-degrees
    from inside its reach the first time they are needed.  A picture counts
    its nodes' parents among its own nodes, never the whole graph's (0 is a
    member of most sets), and only once a numeral or pair candidate needs
    them, so a picture costs O(picture).
    """
    num_val = _numeral_values(members)
    pair = {u: _pair_parts(u, members.__getitem__) for u in members}
    numeral: dict = {}  # u -> _numeral_interior(members, u, num_val[u])
    label: list[str] = []  # label[i] == f"x{i}"

    def picture(order) -> str:
        label.extend([f"x{i}" for i in range(len(label), len(order))])
        root = order[0]
        pos = {u: i for i, u in enumerate(order)}
        indeg = None  # each node's parents among the picture's nodes, counted
        skip, sugar = set(), {}
        for u in order:
            k = num_val[u]
            if k is None:
                continue
            if u not in numeral:
                numeral[u] = _numeral_interior(members, u, k)
            inner = numeral[u]
            if inner is None or root in inner:
                continue
            if inner:
                indeg = indeg or Counter(chain.from_iterable(map(members.__getitem__, order)))
                if any(indeg[d] != c for d, c in inner.items()):
                    continue
                skip.update(inner)
            sugar[u] = str(k)
            break
        for u in order:
            if pair[u] is None or u in sugar or u in skip:
                continue
            a, b, w1, w2 = pair[u]
            if {w1, w2} & {a, b, root} or skip & {a, b, w1, w2}:
                continue
            indeg = indeg or Counter(chain.from_iterable(map(members.__getitem__, order)))
            if indeg[w1] == 1 == indeg[w2]:
                sugar[u] = f"<{label[pos[a]]}, {label[pos[b]]}>"
                skip |= {w1, w2}
        return "".join([
            f"{label[pos[u]]} = {sugar[u]};\n" if u in sugar else
            f"{label[pos[u]]} = {{"
            f"{', '.join([label[i] for i in sorted([pos[v] for v in members[u]])])}}};\n"
            for u in order if u not in skip])

    return picture


def _numeral_interior(members, u, k: int) -> Optional[Counter]:
    """For u with numeral value k: each node below u, with its number of
    parents among u and those nodes; or None when more than k + 1 nodes
    are reachable from u (u and its k children already make k + 1)."""
    reach = _reach(members, u, k + 1)
    if reach is None:
        return None
    inner = Counter([v for w in reach for v in members[w]])
    del inner[u]
    return inner


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
