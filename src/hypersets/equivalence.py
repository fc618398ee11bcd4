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

from .apg import DEFAULT_ISO_CAP, Apg, Partition, _pointed_iso, _refine, _trim
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
    ids dense from 0.

    Finsler refines counting, so only nodes that share their counting class
    with another node need their sub-APGs trimmed, each compared with the
    class's representatives of its own node and edge count; when the
    counting partition is discrete it is the answer.  A pointed isomorphism
    phi from u's sub-APG onto a representative's restricts to one from x's
    onto phi(x)'s for every x below u, so each map found unites all the
    pairs it maps (union-find, Tarjan, JACM 1975), and a node already
    united with a representative is neither trimmed nor tested.  The
    classes are the union-find's components.
    """
    n = len(children)
    if n > cap:
        raise SizeLimitExceeded(f"finsler partition capped at {cap} nodes")
    class_of = _refine(children, counting=True)
    k = max(class_of) + 1
    if k == n:
        return class_of
    members: list[list[int]] = [[] for _ in range(k)]
    for u, c in enumerate(class_of):
        members[c].append(u)

    parent = list(range(n))  # union-find; every union is a Finsler equality
    held: set[int] = set()  # the roots of the components holding a representative

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    raw = dict(enumerate(children))
    for nodes in members:
        if len(nodes) < 2:
            continue
        reps: dict[tuple[int, int], list] = {}  # (nodes, edges) -> [(sub-APG, its old ids)]
        for u in nodes:
            if find(u) in held:
                continue
            sub, trans = _trim(raw, (u,))
            bucket = reps.setdefault((len(sub), sum(map(len, sub))), [])
            for rep, old in bucket:
                phi = _pointed_iso(sub, 0, rep, 0)
                if phi is not None:
                    for x, y in zip(trans, phi):
                        x, y = find(x), find(old[y])
                        if x in held:  # a representative's root stays a root
                            x, y = y, x
                        parent[x] = y
                    break
            else:
                bucket.append((sub, list(trans)))
                held.add(find(u))
    ids: dict[int, int] = {}
    return [ids.setdefault(find(u), len(ids)) for u in range(n)]
