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
    _refine,
    pointed_isomorphic,
    trim_to_accessible,
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
    """Group u, v iff the sub-APGs rooted at u and at v are pointed-isomorphic."""
    n = g.node_count
    if n > cap:
        raise SizeLimitExceeded(f"finsler partition capped at {cap} nodes")

    raw = {u: sorted(g.children[u]) for u in range(n)}
    subs = [trim_to_accessible(raw, u)[0] for u in range(n)]

    # Nodes can only be isomorphic within equal (size, edges, counting class)
    # buckets, which keeps the number of isomorphism calls small.
    counting = counting_partition(g)
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for u in range(n):
        key = (subs[u].node_count, subs[u].edge_count, counting.class_of[u])
        buckets.setdefault(key, []).append(u)

    class_of = [0] * n
    next_class = 0
    for nodes in buckets.values():
        reps: list[int] = []
        for u in nodes:
            for r in reps:
                if pointed_isomorphic(subs[u], subs[r], cap=cap) is not None:
                    class_of[u] = class_of[r]
                    break
            else:
                reps.append(u)
                class_of[u] = next_class
                next_class += 1
    return Partition.from_class_of(class_of)
