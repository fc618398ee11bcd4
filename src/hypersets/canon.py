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

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .apg import (
    Apg,
    DEFAULT_ISO_CAP,
    Partition,
    _reduce_generators,
    _stable_colors,
    isomorphisms,
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


def automorphisms(g: Apg, cap: int = DEFAULT_ISO_CAP) -> AutomorphismGroup:
    """All root-preserving edge-preserving node permutations of g, sorted.

    The group is enumerated explicitly, so this is only meant for graphs
    whose automorphism group is small.
    """
    perms = sorted(_automorphism_search(g, cap))
    return AutomorphismGroup(
        order=len(perms),
        generators=tuple(_reduce_generators(perms, g.node_count)),
        elements=tuple(perms),
    )


def is_rigid(g: Apg, cap: int = DEFAULT_ISO_CAP) -> bool:
    """True iff the identity is the only root-preserving automorphism."""
    identity = tuple(range(g.node_count))
    return all(p == identity for p in _automorphism_search(g, cap))


def _automorphism_search(g: Apg, cap: int):
    """The automorphisms of g, lazily, from colours that fix the root."""
    if g.node_count > cap:
        raise SizeLimitExceeded(f"automorphism search capped at {cap} nodes")
    init = [0] * g.node_count
    init[g.root] = 1  # the root is fixed by every automorphism
    colors = _stable_colors(g.children, init)
    return isomorphisms(g.children, colors, g.children, colors)


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
