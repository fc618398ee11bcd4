"""Reference computations the benchmark checks the package against.

None of this imports the package.  Graphs are plain sequences of child
sets.  The methods are the textbook ones, chosen to share nothing with the
package's engines:

* AFA equality is the coarsest partition stable under "set of child
  classes", found by naive rounds of signature refinement (no worklist, no
  smaller-half trick), or, for tiny graphs, the all-pairs greatest fixpoint.
* SAFA equality merges nodes whose tree unfoldings are isomorphic: two
  nodes have isomorphic unfoldings to depth d exactly when d rounds of
  refinement by "multiset of child classes" cannot tell them apart.
  Merging collapses parallel edges, which can make more unfoldings equal,
  so merge and refine repeat until nothing merges.
"""

from __future__ import annotations

from collections import Counter


def signature_classes(children) -> list[int]:
    """Coarsest partition in which equal nodes have equal sets of child
    classes (AFA equality, the maximal bisimulation)."""
    n = len(children)
    colors = [0] * n
    count = 1 if n else 0
    while True:
        table: dict = {}
        colors = [
            table.setdefault((colors[u], frozenset(colors[v] for v in children[u])), len(table))
            for u in range(n)
        ]
        if len(table) == count:
            return colors
        count = len(table)


def counting_classes(children) -> list[int]:
    """Coarsest partition in which equal nodes have, for every class, the
    same number of children in it (unfolding isomorphism)."""
    n = len(children)
    colors = [0] * n
    count = 1 if n else 0
    while True:
        table: dict = {}
        colors = [
            table.setdefault(
                (colors[u], tuple(sorted(Counter(colors[v] for v in children[u]).items()))),
                len(table),
            )
            for u in range(n)
        ]
        if len(table) == count:
            return colors
        count = len(table)


def safa_classes(children) -> tuple[list[int], int]:
    """SAFA equality: merge unfolding-isomorphic nodes until none remain.

    Returns the final node of every input node and the number of final
    nodes.  Two nodes picture the same SAFA set iff they end on the same
    node, and the nodes reachable from a root form its canonical picture.
    """
    node_of = list(range(len(children)))
    cur = [frozenset(kids) for kids in children]
    while True:
        colors = counting_classes(cur)
        count = max(colors, default=-1) + 1
        if count == len(cur):
            return node_of, count
        merged: list = [None] * count
        for u, kids in enumerate(cur):
            if merged[colors[u]] is None:
                merged[colors[u]] = frozenset(colors[v] for v in kids)
        node_of = [colors[c] for c in node_of]
        cur = merged


def naive_bisimulation(children) -> list[list[bool]]:
    """All-pairs greatest fixpoint: rel[u][v] iff u and v are bisimilar.
    Quadratic in the node count per round; meant for graphs of a few dozen
    nodes."""
    n = len(children)
    rel = [[True] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(n):
                if rel[u][v] and not (
                    all(any(rel[c][d] for d in children[v]) for c in children[u])
                    and all(any(rel[c][d] for c in children[u]) for d in children[v])
                ):
                    rel[u][v] = False
                    changed = True
    return rel


def disjoint_union(*graphs):
    """Children of the disjoint union of (children, root) graphs, and the
    roots' new ids."""
    children: list[frozenset[int]] = []
    roots = []
    for kids_of, root in graphs:
        offset = len(children)
        children.extend(frozenset(v + offset for v in kids) for kids in kids_of)
        roots.append(root + offset)
    return children, roots


def afa_equal(g1, g2) -> bool:
    children, (r1, r2) = disjoint_union(g1, g2)
    return naive_bisimulation(children)[r1][r2]


def safa_equal(g1, g2) -> bool:
    children, (r1, r2) = disjoint_union(g1, g2)
    node_of, _ = safa_classes(children)
    return node_of[r1] == node_of[r2]


def same_partition(a, b) -> bool:
    """Do two class labellings of the same nodes induce the same partition?"""
    if len(a) != len(b):
        return False
    fwd: dict = {}
    back: dict = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
            return False
    return True


def decoration_errors(children, canon_children, decoration) -> int:
    """Nodes n at which the decoration equation
    children(d(n)) = {d(c) : c in children(n)} fails."""
    return sum(
        1
        for u, kids in enumerate(children)
        if canon_children[decoration[u]] != frozenset(decoration[c] for c in kids)
    )


def group_order(generators, degree: int) -> int:
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)
