"""The three node equivalences behind the anti-foundation semantics.

* ``max_bisimulation``  — coarsest self-bisimulation (AFA equality),
* ``counting_partition``— coarsest partition stable under per-class child
  counts (the finite surrogate for isomorphism of tree unfoldings, SAFA),
* ``finsler_partition`` — nodes identified iff their sub-APGs are
  pointed-isomorphic (FAFA / isomorphism extensionality).

Finsler refines counting refines bisimulation, and on well-founded graphs
all three coincide with the Mostowski collapse.
"""

from __future__ import annotations

from .apg import (
    Apg,
    DEFAULT_ISO_CAP,
    Partition,
    _iso_classes,
    _refine,
    _trim,
)
from .errors import SizeLimitExceeded


def max_bisimulation(g: Apg) -> Partition:
    """Coarsest partition in which same-class nodes have, for every class C,
    the same answer to "does some child lie in C"; O(edges * log nodes)."""
    return Partition.from_class_of(_refine(g.children))


def counting_partition(g: Apg) -> Partition:
    """Coarsest partition where same-class nodes have equal numbers of
    children in every class; O(edges * log nodes)."""
    return Partition.from_class_of(_refine(g.children, counting=True))


def finsler_partition(g: Apg, cap: int = DEFAULT_ISO_CAP) -> Partition:
    """Group u, v iff the sub-APGs rooted at u and at v are pointed-isomorphic.

    Only nodes that share their counting class with another node have
    their sub-APGs trimmed and compared (``_finsler_classes``); raises
    ``SizeLimitExceeded`` when g has more than ``cap`` nodes.
    """
    return Partition.from_class_of(_finsler_classes(g.children, cap))


def _finsler_classes(children, cap: int) -> list[int]:
    """``finsler_partition`` on bare child sets: one class id per node, the
    ids dense from 0 in no particular order.

    Finsler refines counting, so only nodes that share their counting class
    with another node need their sub-APGs trimmed and compared; when the
    counting partition is discrete it is the answer.  A pointed isomorphism
    phi from u's sub-APG onto another node's restricts to one from x's onto
    phi(x)'s for every x below u, so each map found unites all the pairs it
    maps (union-find, Tarjan, JACM 1975), and a node already united with a
    tested one is neither trimmed nor tested.
    """
    n = len(children)
    if n > cap:
        raise SizeLimitExceeded(f"finsler partition capped at {cap} nodes")
    class_of = _refine(children, counting=True)
    next_class = max(class_of) + 1
    if next_class == n:
        return class_of
    members: list[list[int]] = [[] for _ in range(next_class)]
    for u, c in enumerate(class_of):
        members[c].append(u)

    parent = list(range(n))  # union-find; every union is a Finsler equality
    tested: dict[int, int] = {}  # a component's root -> the index of a node tested in it

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    raw = dict(enumerate(children))
    for nodes in members:
        if len(nodes) < 2:
            continue
        reach: list[list[int]] = []  # each tested node's sub-APG, old ids in trimmed order

        def untested():
            for u in nodes:
                r = find(u)
                if r not in tested:
                    tested[r] = len(reach)
                    sub, trans = _trim(raw, (u,))
                    reach.append(list(trans))
                    yield sub, 0

        def unite(i: int, j: int, phi) -> None:
            for x, y in zip(reach[i], phi):
                x, y = find(x), find(reach[j][y])
                if y not in tested:  # a tested root stays a root
                    x, y = y, x
                parent[x] = y

        ids = _iso_classes(untested(), unite)
        # The class's first representative keeps its id; the others are new.
        keep = class_of[nodes[0]]
        for u in nodes:
            i = ids[tested[find(u)]]
            class_of[u] = keep if i == 0 else next_class + i - 1
        next_class += max(ids)
    return class_of
