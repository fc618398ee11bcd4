"""Canonical forms, equality, canonicity tests and the automorphism engine
for the three isomorphism-flavoured semantics (AFA, SAFA, FAFA).

Canonicalization quotients a graph by its mode's node equivalence until no
further merging is possible.  For AFA a single quotient by the maximal
bisimulation suffices; for SAFA and FAFA each quotient can merge parallel
edges and enable further merging, so the partition/quotient pair is
iterated on bare child sets until nothing more merges (node count
strictly decreases, so this terminates).  Boffa semantics lives in its own
module: there equality is plain node identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

from .apg import (
    Apg,
    DEFAULT_ISO_CAP,
    Partition,
    _pointed_iso,
    _quotient,
    _reach,
    _refine,
    _search,
)
from .equivalence import _finsler_classes
from .errors import SizeLimitExceeded


class Semantics(Enum):
    AFA = "afa"
    SAFA = "safa"
    FAFA = "fafa"


# Module names for the members: a global read costs a tenth of the enum's
# member lookup, and the settle loop compares against them on every pair.
_AFA, _SAFA, _FAFA = Semantics.AFA, Semantics.SAFA, Semantics.FAFA


@dataclass(frozen=True)
class CanonResult:
    """A canonical graph plus the decoration mapping old nodes onto it.

    The decoration satisfies the decoration equation: the children of
    decoration(n) are exactly the decoration-image of n's children.
    """

    canonical: Apg
    decoration: tuple[int, ...]


def _blocks(children, s: Semantics, cap: int) -> list[int]:
    """The mode's node equivalence on bare child sets, as dense block ids."""
    if s is _FAFA:
        return _finsler_classes(children, cap)
    return _refine(children, counting=s is _SAFA)


def _settle(children, root: int, s: Semantics, cap: int, roots=()):
    """Quotient the graph with these child sets by its mode's partition
    until nothing more can merge, or until ``roots`` all share one block,
    which no later round can split; on bare child sets throughout.

    Returns the last graph's child sets and root, the decoration of the
    input's nodes onto it, and its block ids and block count; the blocks
    are the sets pictured.  AFA stops after the first partition: one
    bisimulation quotient leaves nothing to merge.  SAFA stops once no node
    has two children in one block: no edges then merge, so the quotient's
    counting partition is discrete (a coarser one would pull back to a
    coarser counting-stable partition of this graph).  FAFA stops only at a
    discrete partition, since its quotient can merge nodes without merging
    edges: r -> {a, c}, with a on a 2-cycle and c on a 4-cycle, merges the
    two loops only in the second round.
    """
    decoration = range(len(children))
    while True:
        block_of = _blocks(children, s, cap)
        count = max(block_of) + 1
        if (
            s is _AFA
            or count == len(children)
            or len({block_of[decoration[r]] for r in roots}) == 1
            or (
                s is _SAFA
                and all(len({block_of[v] for v in kids}) == len(kids) for kids in children)
            )
        ):
            return children, root, decoration, block_of, count
        children, proj = _quotient(children, root, block_of, count)
        root = 0
        decoration = [proj[c] for c in decoration]


def canonicalize(g: Apg, s: Semantics, cap: int = DEFAULT_ISO_CAP) -> CanonResult:
    """Quotient g by its mode's partition until no merging remains.

    The settled graph is quotiented once more by its last partition, which
    also re-indexes it into its deterministic breadth-first form; only this
    final graph is built as an ``Apg``.
    """
    children, root, decoration, block_of, count = _settle(g.children, g.root, s, cap)
    children, proj = _quotient(children, root, block_of, count)
    return CanonResult(Apg(children, 0), tuple([proj[c] for c in decoration]))


def solve(children, roots, s: Semantics, cap: int = DEFAULT_ISO_CAP, pictures: bool = False):
    """Solve the set equations u = {children[u]} for the sets at ``roots``,
    from which every node must be reachable.  One decoration solves the
    whole system (Aczel's solution lemma): it is settled once, under a fresh
    root over ``roots``, and without ``pictures`` only until the roots share
    a block.  FAFA's cap bounds each root's graph, not the union, as a
    node's Finsler class depends only on its own sub-APG.  Returns a class
    id per root, equal iff the roots picture the same set, from 0 in order
    of first appearance, then each node's class and each class's member
    classes, or None and None without ``pictures``.  A breadth-first walk
    from u, expanding the first node met in each class, numbers u's
    canonical picture as ``canonicalize`` does."""
    n = len(children)
    if n > cap and s is _FAFA and any(_reach(children, r, cap) is None for r in roots):
        raise SizeLimitExceeded(f"finsler partition capped at {cap} nodes")
    settled, _, decoration, block_of, _ = _settle(
        [*children, frozenset(roots)], n, s, n + 1, () if pictures else roots)
    first: dict[int, int] = {}
    ids = [first.setdefault(block_of[decoration[r]], len(first)) for r in roots]
    if not pictures:
        return ids, None, None
    members = {block_of[u]: frozenset([block_of[v] for v in vs]) for u, vs in enumerate(settled)}
    return ids, [block_of[d] for d in decoration[:n]], members


def equality_classes(
    graphs: Sequence[Apg], s: Semantics, cap: int = DEFAULT_ISO_CAP
) -> list[int]:
    """One class id per graph, as ``solve`` numbers them: equal ids iff the
    graphs picture the same set.  AFA and SAFA solve the disjoint union.
    FAFA settles each graph on its own, within the cap, and tests it for
    pointed isomorphism against one settled graph per class found so far,
    of its own node and edge count: a joint settle costs about 1.6 times as
    much on many small pairs, as its Finsler partitions make more tests."""
    if s is _FAFA:
        ids: list[int] = []
        count = 0
        reps: dict[tuple[int, int], list] = {}  # (nodes, edges) -> [(children, root, id)]
        for g in graphs:
            ch, root = _settle(g.children, g.root, s, cap)[:2]
            bucket = reps.setdefault((len(ch), sum(map(len, ch))), [])
            for rep, rep_root, i in bucket:
                if _pointed_iso(ch, root, rep, rep_root) is not None:
                    break
            else:
                i, count = count, count + 1
                bucket.append((ch, root, i))
            ids.append(i)
        return ids
    children, roots = [], []
    for g in graphs:
        k = len(children)
        roots.append(g.root + k)
        children += [frozenset(map(k.__add__, kids)) for kids in g.children] if k else g.children
    return solve(children, roots, s)[0]


def equal(g1: Apg, g2: Apg, s: Semantics, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Do the two graphs picture the same set under the given semantics?"""
    a, b = equality_classes((g1, g2), s, cap=cap)
    return a == b


def is_canonical_picture(
    g: Apg, s: Semantics, cap: int = DEFAULT_ISO_CAP
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Is g (up to isomorphism) the canonical picture of a set under s?

    True iff the mode's partition of g is discrete; FAFA additionally
    requires plain extensionality.  On False the witness is a pair of
    distinct nodes that would merge.
    """
    if s is _FAFA:
        seen: dict[frozenset[int], int] = {}
        for u, kids in enumerate(g.children):
            if kids in seen:
                return False, (seen[kids], u)
            seen[kids] = u
    p = Partition.from_class_of(_blocks(g.children, s, cap))
    if p.is_discrete:
        return True, None
    for members in p.classes():
        if len(members) > 1:
            return False, (members[0], members[1])
    raise AssertionError("non-discrete partition without a doubled class")


@dataclass(frozen=True)
class AutomorphismGroup:
    """Root-preserving automorphisms of an APG on ``degree`` nodes, as
    permutation tuples.

    ``generators`` is irredundant, deepest stabilizer level first: none
    lies in the group generated by those before it.  ``elements`` lists
    the whole group, sorted, and is built only when first read.
    """

    order: int
    generators: tuple[tuple[int, ...], ...]
    degree: int

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        identity = tuple(range(self.degree))
        seen = {identity}
        frontier = [identity]
        for p in frontier:
            for gen in self.generators:
                q = tuple(p[i] for i in gen)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        return tuple(sorted(seen))


def automorphisms(g: Apg, cap: int = DEFAULT_ISO_CAP) -> AutomorphismGroup:
    """The root-preserving automorphisms of g, from a stabilizer chain read
    off the one search, without listing the group.

    The search maps the nodes in a fixed order, the chain's base b_0, b_1,
    ...  Each leaf is sent back to the first depth d at which it moves a
    node.  While b_0 .. b_(d-1) are mapped to themselves, b_d tries itself
    first, so leaves come at non-increasing depths and all found so far fix
    b_0 .. b_(d-1); b_d then skips every image in its orbit under them
    (orbit pruning, McKay & Piperno, J. Symb. Comput. 2014).  So each leaf
    at least doubles the group found, and b_d's orbit once its last leaf is
    in is its orbit under the stabilizer of b_0 .. b_(d-1).  The order is
    the product of these orbits' sizes, as in Sims' method (Seress,
    *Permutation Group Algorithms*, 2003).  Going from the deepest level
    up, a leaf is dropped when the others kept at its level, with the
    deeper generators, still reach b_d's whole orbit.
    """
    orbit = list(range(g.node_count))  # an orbit id per node, under the leaves so far
    members: dict[int, list[int]] = {}  # the nodes of each orbit of two or more
    search, base = _automorphism_search(g, cap, orbit)
    reps: dict[int, list[tuple[int, ...]]] = {}  # leaves by depth, deepest first
    sizes: dict[int, int] = {}
    depth = None
    while True:
        try:
            leaf = search.send(depth)
        except StopIteration:
            break
        depth = next((d for d, u in enumerate(base) if leaf[u] != u), None)
        if depth is None:
            continue
        reps.setdefault(depth, []).append(leaf)
        for x, y in enumerate(leaf):
            a, b = orbit[x], orbit[y]
            if a != b:  # at most n - 1 merges, so O(n^2) in all
                moved = members.pop(b, [b])
                for v in moved:
                    orbit[v] = a
                members.setdefault(a, [a]).extend(moved)
        sizes[depth] = len(members[orbit[base[depth]]])
    gens: list[tuple[int, ...]] = []
    for depth, leaves in reps.items():
        kept = leaves
        for p in leaves:
            rest = [q for q in kept if q is not p]
            if len(_orbit(base[depth], gens + rest)) == sizes[depth]:
                kept = rest
        gens += kept
    return AutomorphismGroup(
        order=math.prod(sizes.values()), generators=tuple(gens), degree=g.node_count
    )


def _orbit(point: int, perms: list[tuple[int, ...]]) -> set[int]:
    """The orbit of point under the group the permutations generate."""
    orbit = {point}
    frontier = [point]
    for x in frontier:
        for p in perms:
            if p[x] not in orbit:
                orbit.add(p[x])
                frontier.append(p[x])
    return orbit


def is_rigid(g: Apg, cap: int = DEFAULT_ISO_CAP) -> bool:
    """True iff the identity is the only root-preserving automorphism."""
    identity = tuple(range(g.node_count))
    return all(p == identity for p in _automorphism_search(g, cap)[0])


def _automorphism_search(g: Apg, cap: int, orbit=None):
    """``apg._search`` over the automorphisms of g, pruned by ``orbit``, and
    the order in which it maps the nodes (the chain's base)."""
    if g.node_count > cap:
        raise SizeLimitExceeded(f"automorphism search capped at {cap} nodes")
    return _search(g.children, g.root, g.children, g.root, orbit)


def to_dot(g: Apg, name: str = "hyperset") -> str:
    """DOT rendering; the root is drawn with doubled periphery."""
    if name.lower() in ("graph", "node", "edge", "digraph", "subgraph", "strict"):
        name = f'"{name}"'  # DOT keywords are graph IDs only when quoted
    lines = [f"digraph {name} {{"]
    for u in range(g.node_count):
        label = g.labels.get(u, str(u))
        extra = ", peripheries=2" if u == g.root else ""
        lines.append(f'  n{u} [label="{label}"{extra}];')
    for u in range(g.node_count):
        for v in sorted(g.children[u]):
            lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
