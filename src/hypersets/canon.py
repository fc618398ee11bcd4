"""Canonical forms, equality, canonicity tests and the automorphism engine
for the three isomorphism-flavoured semantics (AFA, SAFA, FAFA).

Canonicalization quotients a graph by its mode's node equivalence until no
further merging is possible.  For AFA a single quotient by the maximal
bisimulation suffices; for SAFA and FAFA each quotient can merge parallel
edges and enable further merging, so the partition/quotient pair is
iterated to a fixpoint (node count strictly decreases, so this
terminates).  Boffa semantics lives in its own module: there equality is
plain node identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .apg import (
    Apg,
    DEFAULT_ISO_CAP,
    Partition,
    _parent_sets,
    _stable_colors,
    pointed_isomorphic,
    quotient,
)
from .equivalence import counting_partition, finsler_partition, max_bisimulation
from .errors import SizeLimitExceeded


class Semantics(Enum):
    AFA = "afa"
    SAFA = "safa"
    FAFA = "fafa"


@dataclass(frozen=True)
class CanonResult:
    """A canonical graph plus the decoration mapping old nodes onto it.

    The decoration satisfies the decoration equation: the children of
    decoration(n) are exactly the decoration-image of n's children.
    """

    canonical: Apg
    decoration: tuple[int, ...]


def _mode_partition(g: Apg, s: Semantics, cap: int) -> Partition:
    if s is Semantics.AFA:
        return max_bisimulation(g)
    if s is Semantics.SAFA:
        return counting_partition(g)
    return finsler_partition(g, cap=cap)


def _settle(g: Apg, s: Semantics, cap: int) -> tuple[Apg, list[int], Partition]:
    """Quotient g by its mode's partition until that partition is discrete
    (AFA stops after the first partition: one bisimulation quotient leaves
    nothing to merge).  Returns the last graph, the decoration of g's nodes
    onto it, and its partition, whose classes are the sets pictured."""
    decoration = list(range(g.node_count))
    while True:
        p = _mode_partition(g, s, cap)
        if s is Semantics.AFA or p.is_discrete:
            return g, decoration, p
        g, proj = quotient(g, p)
        decoration = [proj[c] for c in decoration]


def canonicalize(g: Apg, s: Semantics, cap: int = DEFAULT_ISO_CAP) -> CanonResult:
    """Quotient g by its mode's partition until no merging remains.

    The final quotient by a discrete partition only re-indexes the graph
    into its deterministic breadth-first form.
    """
    cur, decoration, p = _settle(g, s, cap)
    cur, proj = quotient(cur, p)
    return CanonResult(cur, tuple(proj[c] for c in decoration))


def equality_classes(
    graphs: Sequence[Apg], s: Semantics, cap: int = DEFAULT_ISO_CAP
) -> list[int]:
    """One class id per graph: equal ids iff the graphs picture the same set.

    AFA and SAFA settle the graphs' disjoint union under a fresh root once,
    as ``canonicalize`` does, and read off the classes of their roots; no
    isomorphism search runs, so no cap applies.  FAFA groups the graphs'
    canonical forms by pointed isomorphism, so the cap bounds each graph,
    not their union.  Ids count from 0 in order of first appearance.
    """
    if s is Semantics.FAFA:
        return picture_classes([canonicalize(g, s, cap=cap).canonical for g in graphs], s, cap)
    union, roots = _union_under_fresh_root(graphs)
    _, decoration, p = _settle(union, s, cap)
    return list(Partition.from_class_of(p.class_of[decoration[r]] for r in roots).class_of)


def picture_classes(
    pictures: Sequence[Apg], s: Semantics, cap: int = DEFAULT_ISO_CAP
) -> list[int]:
    """``equality_classes`` of graphs that are already canonical under s.

    FAFA then tests each picture against one representative per class,
    without canonicalizing it again; AFA and SAFA take the joint pass.
    """
    if s is not Semantics.FAFA:
        return equality_classes(pictures, s, cap=cap)
    reps: list[Apg] = []
    out = []
    for pic in pictures:
        for i, rep in enumerate(reps):
            if pointed_isomorphic(pic, rep, cap=cap) is not None:
                out.append(i)
                break
        else:
            out.append(len(reps))
            reps.append(pic)
    return out


def _union_under_fresh_root(graphs: Sequence[Apg]) -> tuple[Apg, list[int]]:
    """The disjoint union of the graphs below a new root 0, and the node
    ids of their roots in it."""
    children: list[frozenset[int]] = [frozenset()]
    roots = []
    for g in graphs:
        offset = len(children)
        roots.append(g.root + offset)
        children.extend(frozenset(v + offset for v in kids) for kids in g.children)
    children[0] = frozenset(roots)
    return Apg(tuple(children), 0), roots


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
    if s is Semantics.FAFA:
        seen: dict[frozenset[int], int] = {}
        for u, kids in enumerate(g.children):
            if kids in seen:
                return False, (seen[kids], u)
            seen[kids] = u
    p = _mode_partition(g, s, cap)
    if p.is_discrete:
        return True, None
    for members in p.classes():
        if len(members) > 1:
            return False, (members[0], members[1])
    raise AssertionError("non-discrete partition without a doubled class")


@dataclass(frozen=True)
class AutomorphismGroup:
    """Root-preserving automorphisms of an APG, as permutation tuples."""

    order: int
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]


def automorphisms(
    g: Apg, cap: int = DEFAULT_ISO_CAP, exhaustive_limit: int = 8
) -> AutomorphismGroup:
    """All root-preserving edge-preserving node permutations of g.

    Graphs with at most ``exhaustive_limit`` nodes are handled by filtering
    every root-fixing permutation (oracle mode); larger graphs use
    ordered-partition backtracking seeded by the counting classes, which
    every automorphism preserves.  The group is enumerated explicitly, so
    this is only meant for graphs whose automorphism group is small.
    """
    if g.node_count > cap:
        raise SizeLimitExceeded(f"automorphism search capped at {cap} nodes")
    if g.node_count <= exhaustive_limit:
        perms = _brute_force_automorphisms(g)
    else:
        perms = _search_automorphisms(g, stop_nontrivial=False)
    perms.sort()
    return AutomorphismGroup(
        order=len(perms),
        generators=tuple(_reduce_generators(perms, g.node_count)),
        elements=tuple(perms),
    )


def is_rigid(g: Apg, cap: int = DEFAULT_ISO_CAP) -> bool:
    """True iff the identity is the only root-preserving automorphism."""
    if g.node_count > cap:
        raise SizeLimitExceeded(f"automorphism search capped at {cap} nodes")
    found = _search_automorphisms(g, stop_nontrivial=True)
    identity = tuple(range(g.node_count))
    return all(p == identity for p in found)


def _brute_force_automorphisms(g: Apg) -> list[tuple[int, ...]]:
    n = g.node_count
    others = [u for u in range(n) if u != g.root]
    out = []
    for images in itertools.permutations(others):
        perm = [0] * n
        perm[g.root] = g.root
        for u, w in zip(others, images):
            perm[u] = w
        if all(
            frozenset(perm[v] for v in g.children[u]) == g.children[perm[u]]
            for u in range(n)
        ):
            out.append(tuple(perm))
    return out


def _automorphism_colors(g: Apg) -> list[int]:
    counting = counting_partition(g)
    init = [2 * c for c in counting.class_of]
    init[g.root] += 1  # the root is fixed by every automorphism
    return _stable_colors(list(g.children), list(g.parents()), init)


def _search_automorphisms(g: Apg, stop_nontrivial: bool) -> list[tuple[int, ...]]:
    """Backtracking enumeration.  With ``stop_nontrivial`` the identity
    image is tried last at every node, so the first permutation completed
    is non-identity whenever any nontrivial automorphism exists."""
    n = g.node_count
    colors = _automorphism_colors(g)
    by_color: dict[int, list[int]] = {}
    for u in range(n):
        by_color.setdefault(colors[u], []).append(u)

    order = sorted(range(n), key=lambda u: (len(by_color[colors[u]]), u))
    ch = g.children
    par = _parent_sets(ch)

    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}
    used = [False] * n
    results: list[tuple[int, ...]] = []

    def consistent(u: int, w: int) -> bool:
        for c in ch[u]:
            if c in fwd and fwd[c] not in ch[w]:
                return False
        for p in par[u]:
            if p in fwd and w not in ch[fwd[p]]:
                return False
        for c in ch[w]:
            pre = rev.get(c)
            if pre is not None and pre not in ch[u]:
                return False
        for p in par[w]:
            pre = rev.get(p)
            if pre is not None and u not in ch[pre]:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == n:
            results.append(tuple(fwd[u] for u in range(n)))
            return stop_nontrivial
        u = order[i]
        candidates = [w for w in by_color[colors[u]] if not used[w]]
        if stop_nontrivial:
            candidates.sort(key=lambda w: w == u)  # identity choice last
        for w in candidates:
            if not consistent(u, w):
                continue
            fwd[u] = w
            rev[w] = u
            used[w] = True
            if backtrack(i + 1):
                return True
            del fwd[u]
            del rev[w]
            used[w] = False
        return False

    backtrack(0)
    return results


def _reduce_generators(
    perms: list[tuple[int, ...]], n: int
) -> list[tuple[int, ...]]:
    identity = tuple(range(n))
    generated = {identity}
    gens: list[tuple[int, ...]] = []
    for p in perms:
        if p in generated:
            continue
        gens.append(p)
        frontier = list(generated)
        generated.add(p)
        while frontier:
            q = frontier.pop()
            for r in (p,) + tuple(gens):
                comp = tuple(q[r[i]] for i in range(n))
                if comp not in generated:
                    generated.add(comp)
                    frontier.append(comp)
    return gens


def to_dot(g: Apg, name: str = "hyperset") -> str:
    """DOT rendering; the root is drawn with doubled periphery."""
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
