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

from collections import OrderedDict

from .apg import Apg, DEFAULT_ISO_CAP, Partition, pointed_isomorphic, trim_to_accessible
from .errors import SizeLimitExceeded


def max_bisimulation(g: Apg) -> Partition:
    """Coarsest partition in which same-class nodes have, for every class C,
    the same answer to "does some child lie in C".

    Worklist partition refinement with the process-smaller-half strategy
    (Paige-Tarjan); runs in O(edges * log nodes).
    """
    n = g.node_count
    parents: list[list[int]] = [[] for _ in range(n)]
    outdeg = [0] * n
    for u, kids in enumerate(g.children):
        outdeg[u] = len(kids)
        for v in kids:
            parents[v].append(u)

    nonleaf = [u for u in range(n) if outdeg[u]]
    leaf = [u for u in range(n) if not outdeg[u]]

    blocks: dict[int, set[int]] = {}
    block_of = [0] * n
    next_block = 0
    for members in (nonleaf, leaf):
        if members:
            blocks[next_block] = set(members)
            for u in members:
                block_of[u] = next_block
            next_block += 1

    if len(blocks) == 1:
        return Partition.single(n)

    # X-blocks are unions of Q-blocks.  xmembers[xid] holds its block ids in
    # an OrderedDict (O(1) removal and O(1) access to the first entries even
    # after many deletions); xcount[xid] maps a node to its number of
    # children inside the X-block.
    xmembers: list[OrderedDict] = [OrderedDict.fromkeys(blocks)]
    xblock_of = {bid: 0 for bid in blocks}
    xcount: list[dict[int, int]] = [{u: outdeg[u] for u in nonleaf}]
    worklist = [0]
    pending = {0}

    cb = [0] * n  # scratch per-node counts, reset via touched_nodes
    while worklist:
        s = worklist.pop()
        pending.discard(s)
        members = xmembers[s]
        if len(members) < 2:
            continue
        it = iter(members)
        b1 = next(it)
        b2 = next(it)
        # Process the smaller half: scan only the smaller of two blocks.
        b = b1 if len(blocks[b1]) <= len(blocks[b2]) else b2
        del members[b]
        xb = len(xmembers)
        xmembers.append(OrderedDict.fromkeys((b,)))
        xblock_of[b] = xb
        if len(members) >= 2:
            worklist.append(s)
            pending.add(s)

        touched_nodes: list[int] = []
        append_touched = touched_nodes.append
        for v in blocks[b]:
            for u in parents[v]:
                if not cb[u]:
                    append_touched(u)
                cb[u] += 1
        xcount.append({u: cb[u] for u in touched_nodes})
        cs = xcount[s]

        # Three-way split of every block touching pre(B): members whose
        # S-children lie only in B, in both halves, or only in S-B.
        touched: dict[int, tuple[list[int], list[int]]] = {}
        for u in touched_nodes:
            rest = cs[u] - cb[u]
            if rest:
                cs[u] = rest
                key = 1
            else:
                del cs[u]
                key = 0
            d = block_of[u]
            groups = touched.get(d)
            if groups is None:
                groups = touched[d] = ([], [])
            groups[key].append(u)
            cb[u] = 0
        for d, (only_b, in_both) in touched.items():
            dblock = blocks[d]
            if len(only_b) + len(in_both) == len(dblock) and (
                not only_b or not in_both
            ):
                continue  # block unsplit
            home_x = xblock_of[d]
            for us in (only_b, in_both):
                if not us or len(us) == len(dblock):
                    continue
                nb = next_block
                next_block += 1
                blocks[nb] = set(us)
                for u in us:
                    dblock.discard(u)
                    block_of[u] = nb
                xmembers[home_x][nb] = None
                xblock_of[nb] = home_x
            if home_x not in pending and len(xmembers[home_x]) >= 2:
                worklist.append(home_x)
                pending.add(home_x)

    return Partition.from_class_of(block_of)


def counting_partition(g: Apg) -> Partition:
    """Coarsest partition where same-class nodes have equal numbers of
    children in every class.

    Starts from the single-class partition and splits by the multiset of
    each node's child classes, as a sorted tuple, until stable.
    """
    n = g.node_count
    children = g.children
    classes = [0] * n
    ncl = 1 if n else 0
    while True:
        table: dict[tuple, int] = {}
        nxt = [
            table.setdefault(tuple(sorted([classes[v] for v in kids])), len(table))
            for kids in children
        ]
        if len(table) == ncl:
            return Partition.from_class_of(nxt)
        classes, ncl = nxt, len(table)


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
