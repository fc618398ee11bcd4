"""Seeded input generators for the three workloads.

Everything here is plain Python over the standard library: a generated
program comes with its own membership graph (``Desugared``), built from
the language's documented meaning (tuples are right-nested Kuratowski
pairs, naturals are von Neumann numerals), so the oracles never need the
package's flattener to know what a name denotes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# --- a membership graph with named nodes -------------------------------------


@dataclass
class Desugared:
    """Membership graph over dense node ids; ``names`` maps a defined name
    to its node."""

    children: list[set[int]] = field(default_factory=list)
    names: dict[str, int] = field(default_factory=dict)

    def node(self, kids=()) -> int:
        self.children.append(set(kids))
        return len(self.children) - 1

    def numeral(self, k: int) -> int:
        ids: list[int] = []
        for _ in range(k + 1):
            ids.append(self.node(ids))
        return ids[-1]

    def pair(self, a: int, b: int) -> int:
        w1 = self.node((a,))
        if a == b:
            return self.node((w1,))
        return self.node((w1, self.node((a, b))))

    def tuple_(self, comps: list[int]) -> int:
        right = comps[-1]
        for c in reversed(comps[:-1]):
            right = self.pair(c, right)
        return right


def reachable(children, root: int) -> list[int]:
    seen = {root}
    order = [root]
    for u in order:
        for v in sorted(children[u]):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def induced(children, root: int) -> tuple[tuple[frozenset[int], ...], int]:
    """The part of ``children`` reachable from root, re-indexed densely with
    the root at 0."""
    order = reachable(children, root)
    index = {u: i for i, u in enumerate(order)}
    return tuple(frozenset(index[v] for v in children[u]) for u in order), 0


# --- many-small: a clustered program -----------------------------------------


@dataclass
class Program:
    text: str
    graph: Desugared
    names: list[str]          # in definition order
    copies: list[tuple[str, str]]  # (original, renamed copy): equal in every mode


def _term_text(term) -> str:
    kind = term[0]
    if kind == "name":
        return term[1]
    if kind == "nat":
        return str(term[1])
    if kind == "set":
        return "{" + ", ".join(_term_text(t) for t in term[1]) + "}"
    return "<" + ", ".join(_term_text(t) for t in term[1]) + ">"


def _member(rng: random.Random, local: list[str], slot: int):
    """A member term besides the cluster's ring edge.  Its kind is fixed by
    the slot number (a name, a numeral up to 3, a set of two names or a
    pair); the seed picks the names."""
    kind = slot % 4
    if kind == 0:
        return ("name", rng.choice(local))
    if kind == 1:
        return ("nat", slot // 4 % 4)
    if kind == 2:
        return ("set", [("name", rng.choice(local)) for _ in range(2)])
    return ("tuple", [("name", rng.choice(local)) for _ in range(2)])


def _rename(term, table: dict[str, str]):
    kind = term[0]
    if kind == "name":
        return ("name", table.get(term[1], term[1]))
    if kind == "nat":
        return term
    return (kind, [_rename(t, table) for t in term[1]])


# Cluster sizes follow this pattern, where 0 marks a renamed copy of the
# cluster before it.
CLUSTER_PATTERN = (2, 3, 0, 4, 6, 0, 3, 5, 0, 8, 4, 0)
BASE_CLUSTERS = 4
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def clustered_program(wiring: int, min_names: int, naming: int) -> Program:
    """Whole clusters of mutually recursive equations over sets, tuples and
    small numerals, until there are at least ``min_names`` names.

    ``wiring`` draws which names each equation refers to, and ``naming``
    draws the names.  The cost of solving a program depends on its wiring
    (the cost of one FAFA program of 16 names spread by 57% over ten
    wirings), and not on its names, so a workload that fixes the wiring
    and draws the names from its seed does the same work for every seed.
    The program for fewer names is a prefix of the program for more, under
    the same two seeds.

    Name i of a cluster always has name i+1 (cyclically) as a member, so
    every name's picture holds its whole cluster.  The first clusters stand
    alone; each later original cluster also refers to one of them, chosen by
    its position.
    """
    rng = random.Random(wiring)
    spell = random.Random(naming)
    defs: list[tuple[str, tuple]] = []
    base: list[list[str]] = []
    copies: list[tuple[str, str]] = []
    prev: list[tuple[str, tuple]] = []
    c = 0
    while len(defs) < min_names:
        size = CLUSTER_PATTERN[c % len(CLUSTER_PATTERN)] or len(prev)
        word = "".join(spell.choice(_LETTERS) for _ in range(3))
        names = [f"{word}{c}_{i}" for i in range(size)]
        if CLUSTER_PATTERN[c % len(CLUSTER_PATTERN)] == 0:
            table = {a: b for (a, _), b in zip(prev, names)}
            cluster = [(table[a], _rename(t, table)) for a, t in prev]
            copies.extend((a, table[a]) for a, _ in prev)
        else:
            cluster = []
            for i, name in enumerate(names):
                ring = ("name", names[(i + 1) % size])
                extra = [_member(rng, names, c + i), _member(rng, names, 0)]
                if i == 0 and c >= BASE_CLUSTERS:
                    extra.append(("name", rng.choice(base[c % BASE_CLUSTERS])))
                if i % 3 == 1:
                    term = ("tuple", [ring, extra[0]])
                else:
                    term = ("set", [ring] + extra)
                cluster.append((name, term))
        defs.extend(cluster)
        if c < BASE_CLUSTERS:
            base.append(names)
        prev = cluster
        c += 1

    graph = Desugared()
    for name, _ in defs:
        graph.names[name] = graph.node()  # wired below, once all names exist
    for name, term in defs:
        graph.children[graph.names[name]] = _term_members(graph, term)
    text = "".join(f"{name} = {_term_text(term)};\n" for name, term in defs)
    return Program(text, graph, [n for n, _ in defs], copies)


def _term_node(graph: Desugared, term) -> int:
    kind = term[0]
    if kind == "name":
        return graph.names[term[1]]
    if kind == "nat":
        return graph.numeral(term[1])
    if kind == "set":
        return graph.node(_term_node(graph, t) for t in term[1])
    return graph.tuple_([_term_node(graph, t) for t in term[1]])


def _term_members(graph: Desugared, term) -> set[int]:
    """Members of a defined name.  A definition whose right side is itself a
    set literal is that set; a tuple is a pair node, whose members are
    copied so that the name denotes the pair itself."""
    if term[0] == "set":
        return {_term_node(graph, t) for t in term[1]}
    node = _term_node(graph, term)
    return set(graph.children[node])


# --- many-small: pairs of small graphs ---------------------------------------


def small_graph(rng: random.Random, max_nodes: int) -> tuple[tuple[frozenset[int], ...], int]:
    """Accessible part of a sparse random digraph on at most max_nodes nodes."""
    n = rng.randint(1, max_nodes)
    children = [set(rng.sample(range(n), min(rng.choice((0, 0, 1, 1, 1, 2, 2, 3)), n))) for _ in range(n)]
    return induced(children, 0)


def relabelled(rng: random.Random, graph) -> tuple[tuple[frozenset[int], ...], int]:
    """An isomorphic copy of (children, root) under a random node permutation."""
    children, root = graph
    perm = list(range(len(children)))
    rng.shuffle(perm)
    out: list[frozenset[int]] = [frozenset()] * len(children)
    for u, kids in enumerate(children):
        out[perm[u]] = frozenset(perm[v] for v in kids)
    return tuple(out), perm[root]


def graph_pairs(wiring: int, count: int, relabel: random.Random, max_nodes: int = 8,
                copy_share: float = 0.3):
    """Pairs (g1, g2, is_copy) of small graphs; a share of them are
    relabelled copies.  ``wiring`` draws the graphs, and ``relabel`` then
    numbers the nodes of each graph afresh, which changes the inputs but not
    the work of deciding them."""
    rng = random.Random(wiring)
    pairs = []
    for _ in range(count):
        g1 = small_graph(rng, max_nodes)
        copy = rng.random() < copy_share
        g2 = relabelled(rng, g1) if copy else small_graph(rng, max_nodes)
        pairs.append((relabelled(relabel, g1), relabelled(relabel, g2), copy))
    return pairs


# --- large-graph -------------------------------------------------------------


def random_dense_graph(seed: int, nodes: int, edges: int) -> tuple[tuple[frozenset[int], ...], int]:
    """A random spanning backbone from node 0 plus uniform extra edges, so the
    whole graph is accessible from the root 0 (the criterion-9 family)."""
    rng = random.Random(seed)
    children: list[set[int]] = [set() for _ in range(nodes)]
    for v in range(1, nodes):
        children[rng.randrange(v)].add(v)
    count = nodes - 1
    while count < edges:
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if v not in children[u]:
            children[u].add(v)
            count += 1
    return tuple(frozenset(c) for c in children), 0


@dataclass
class RingSystem:
    text: str
    equal_pair: tuple[str, str]    # a renamed copy, with another ring length
    unequal_pair: tuple[str, str]  # a copy with one foreign numeral


def ring_system(wiring: int, period: int, laps: int, naming: int) -> RingSystem:
    """Rings r_i = <r_{i+1}, t_i> whose numeral tags repeat with the given
    period.  Ring a runs ``laps`` periods; its renamed copy b runs one lap
    less, which is the same set under AFA and SAFA since both unfold to the
    same periodic stream; copy c replaces one tag of the period by a numeral
    no other ring uses.  The pictures are large, and their canonical forms
    are one period long.  ``wiring`` draws the tags and the foreign one;
    ``naming`` draws the names of the rings and the order of the equations.
    """
    rng = random.Random(wiring)
    tags = [rng.randint(0, 4) for _ in range(period)]
    # A tag used once per period makes the tag word primitive, so the
    # canonical form is a full period long.
    tags[0] = 5
    foreign = rng.randrange(1, period)
    spell = random.Random(naming)
    a, b, c = ("".join(spell.choice(_LETTERS) for _ in range(3)) + tail for tail in "abc")
    lines = []

    def ring(prefix: str, length: int, word: list[int]):
        for i in range(length):
            lines.append(f"{prefix}{i} = <{prefix}{(i + 1) % length}, {word[i % period]}>;")

    ring(a, laps * period, tags)
    ring(b, (laps - 1) * period, tags)
    ring(c, laps * period, tags[:foreign] + [6] + tags[foreign + 1:])
    spell.shuffle(lines)
    return RingSystem("\n".join(lines) + "\n", (a + "0", b + "0"), (a + "0", c + "0"))
