"""Finite accessible pointed graphs (APGs) and their basic operations.

An APG is the picture of a hereditary set: nodes stand for sets, the root
for the set being pictured, and an edge u -> v says "v is a member of u".
Every node is reachable from the root, node ids are dense naturals, and
child collections are sets (no parallel edges).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from .errors import NotWellFounded, SizeLimitExceeded

DEFAULT_ISO_CAP = 512


@dataclass(frozen=True)
class Apg:
    """Accessible pointed graph with dense node ids 0..node_count-1."""

    children: tuple[frozenset[int], ...]
    root: int
    labels: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.children)
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range for {n} nodes")
        for u, kids in enumerate(self.children):
            for v in kids:
                if not (0 <= v < n):
                    raise ValueError(f"edge {u}->{v} leaves node range 0..{n - 1}")
        seen = _bfs(self.root, self.children)
        if len(seen) != n:
            missing = sorted(set(range(n)) - set(seen))
            raise ValueError(f"nodes {missing} unreachable from root {self.root}")
        for u in self.labels:
            if not (0 <= u < n):
                raise ValueError(f"label on unknown node {u}")

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def edge_count(self) -> int:
        return sum(len(kids) for kids in self.children)


@dataclass(frozen=True)
class Partition:
    """Assignment of each node to a class; class ids are dense naturals."""

    class_of: tuple[int, ...]
    class_count: int

    def __post_init__(self):
        if set(self.class_of) != set(range(self.class_count)):
            raise ValueError("class ids must be contiguous naturals from 0")

    @classmethod
    def from_class_of(cls, class_of: Iterable[int]) -> "Partition":
        """Normalize arbitrary class keys to first-appearance order."""
        renumber: dict = {}
        out = []
        for c in class_of:
            if c not in renumber:
                renumber[c] = len(renumber)
            out.append(renumber[c])
        return cls(tuple(out), len(renumber))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(tuple(range(n)), n)

    @classmethod
    def single(cls, n: int) -> "Partition":
        return cls((0,) * n, 1 if n else 0)

    @property
    def is_discrete(self) -> bool:
        return self.class_count == len(self.class_of)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.class_count)]
        for node, c in enumerate(self.class_of):
            out[c].append(node)
        return out

    def same_class(self, u: int, v: int) -> bool:
        return self.class_of[u] == self.class_of[v]


def _bfs(root, children) -> list:
    """Every node reachable from root, once each, in breadth-first
    discovery order; children are visited in the order ``children[u]``
    lists them."""
    order = [root]
    seen = {root}
    for u in order:
        for v in children[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def _reach(members, u, limit: int) -> Optional[set]:
    """The nodes reachable from u, u included, or None if over ``limit``."""
    seen = {u}
    stack = [u]
    while stack:
        for v in members[stack.pop()]:
            if v not in seen:
                if len(seen) == limit:
                    return None
                seen.add(v)
                stack.append(v)
    return seen


def _postorder(starts, children) -> list:
    """Every node reachable from ``starts``, once each, in depth-first
    post-order: a node comes after every node first reached through it.
    Children are visited in the order ``children[u]`` lists them, on an
    explicit stack, so depth is not bounded by Python's recursion limit.

    An edge u -> v closes a cycle iff v comes at or after u: v is then
    still open, an ancestor of u or u itself (Tarjan, SIAM J. Comput. 1972).
    """
    out = []
    seen = set()
    for s in starts:
        if s in seen:
            continue
        seen.add(s)
        stack = [(s, iter(children[s]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, iter(children[v])))
                    break
            else:
                out.append(u)
                stack.pop()
    return out


def trim_to_accessible(
    children: Mapping[Hashable, Iterable[Hashable]],
    root: Hashable,
    labels: Optional[Mapping[Hashable, str]] = None,
) -> tuple[Apg, dict]:
    """Induced subgraph on the nodes reachable from root, densely re-indexed
    (``_trim``), as a validated ``Apg``, and the translation table old-id
    -> new-id."""
    kids, trans = _trim(children, (root,))
    new_labels = {trans[u]: lab for u, lab in (labels or {}).items() if u in trans}
    return Apg(kids, 0, new_labels), trans


def _trim(children, roots) -> tuple[tuple[frozenset[int], ...], dict]:
    """The child sets of the nodes reachable from ``roots`` and the table
    old-id -> new-id: breadth-first discovery order, the roots first, each
    node's children in the order the input mapping lists them."""
    trans: dict = {}
    for root in roots:
        if root not in children:
            raise ValueError(f"root {root!r} is not a node")
        trans.setdefault(root, len(trans))
    order = list(trans)
    for u in order:
        for v in children[u]:
            if v not in trans:
                if v not in children:
                    raise ValueError(f"edge {u!r}->{v!r} points outside the graph")
                trans[v] = len(order)
                order.append(v)
    new_id = trans.__getitem__
    return tuple([frozenset(map(new_id, children[u])) for u in order]), trans


def is_well_founded(g: Apg) -> bool:
    """True iff no node lies on or reaches a cycle of the child relation."""
    try:
        rank_map(g)
    except NotWellFounded:
        return False
    return True


def rank_map(g: Apg) -> dict[int, int]:
    """Von Neumann rank per node: 0 for childless, else 1 + max child rank."""
    rank: dict[int, int] = {}
    for u in _postorder(range(g.node_count), g.children):
        r = 0
        for v in g.children[u]:
            if v not in rank:  # v comes at or after u: u -> v closes a cycle
                raise NotWellFounded(f"cycle through node {u}")
            r = max(r, rank[v] + 1)
        rank[u] = r
    return rank


def quotient(g: Apg, p: Partition) -> tuple[Apg, tuple[int, ...]]:
    """Collapse each partition class to one node; parallel edges merge.

    The projection map is a decoration of g onto the quotient: the child
    set of a class is the set of classes of children of its members.  New
    node ids are assigned breadth-first from the root class, visiting child
    classes in ascending order of their smallest member id.
    """
    if len(p.class_of) != g.node_count:
        raise ValueError("partition size does not match graph")
    children, projection = _quotient(g.children, g.root, p.class_of, p.class_count)
    return Apg(children, 0), projection


def _quotient(children, root, block_of, block_count):
    """``quotient`` on bare child sets, for block ids 0..block_count-1 in
    any order: the quotient's child sets (its root is 0) and the projection
    of each node onto its block's new id.  Nothing is validated."""
    # Rank the blocks by their smallest member, so the walk sorts plain ints.
    table: dict = {}
    rank_of = [table.setdefault(b, len(table)) for b in block_of]
    rank_children: list[set[int]] = [set() for _ in range(block_count)]
    rank = rank_of.__getitem__
    for r, kids in zip(rank_of, children):
        rank_children[r].update(map(rank, kids))
    order = _bfs(rank_of[root], [sorted(kids) for kids in rank_children])
    new_id = [0] * block_count
    for i, r in enumerate(order):
        new_id[r] = i
    new_of = new_id.__getitem__
    quot = tuple([frozenset(map(new_of, rank_children[r])) for r in order])
    return quot, tuple(map(new_of, rank_of))


# --- isomorphism machinery -------------------------------------------------

def _parent_sets(children) -> list[set[int]]:
    """Reverse adjacency: the nodes that have v as a child, for each v."""
    pred: list[set[int]] = [set() for _ in children]
    for u, kids in enumerate(children):
        for v in kids:
            pred[v].add(u)
    return pred


def _refine(children, init=None, counting=False, parents_too=False) -> list[int]:
    """The package's one partition-refinement engine: the coarsest
    refinement of ``init`` (one class when None) in which the nodes of a
    block agree, for every block B, on whether they have a child in B (AFA
    rule) or on how many children, and with ``parents_too`` how many
    parents, they have in B (counting rule).  One block id per node.

    Worklist refinement after Paige & Tarjan (SIAM J. Comput. 1987) and
    Valmari & Franceschinis (TACAS 2010).  The partition stays stable under
    every compound block (a union of blocks).  A compound block S gives up
    the smaller B of its last two blocks, and every block is split by its
    members' count into B (counting rule) or by whether they also have a
    child in S - B (AFA rule).  B is at most half of S, so O(m log n).

    The first keys come from out-degrees, with ``parents_too`` in-degrees
    too, so a graph they leave in one block or in singletons returns before
    any adjacency is built.  Each block is a member list and a size: a
    split hands the nodes it moves over as the new block's list and only
    lowers the old block's size, and the old list drops its moved nodes
    (those whose block id changed) when the block next serves as a
    splitter.  So no split builds or shrinks a set.
    """
    n = len(children)
    weight = list(map(len, children))
    if parents_too:  # parent edges weigh n + 1, so one count carries both
        indegree = [0] * n
        for v in itertools.chain.from_iterable(children):
            indegree[v] += 1
        weight = [w + (n + 1) * d for w, d in zip(weight, indegree)]
    keys = weight if counting else [w > 0 for w in weight]
    table: dict = {}
    block_of = [
        table.setdefault(k, len(table))
        for k in (keys if init is None else zip(init, keys))
    ]
    if len(table) < 2 or len(table) == n:
        return block_of
    parents: list[list[int]] = [[] for _ in children]
    blocks: list[list[int]] = [[] for _ in table]
    for u, kids in enumerate(children):
        blocks[block_of[u]].append(u)
        for v in kids:
            parents[v].append(u)
    size = list(map(len, blocks))

    xmembers = [list(range(len(blocks)))]  # compound block -> its blocks
    xblock_of = [0] * len(blocks)
    # AFA rule: per compound block, each node's count of children in it.
    xcount = None if counting else [{u: w for u, w in enumerate(weight) if w}]
    worklist = [0]  # exactly the compound blocks of two or more blocks
    cb = [0] * n  # counts into B, reset to 0 after each split
    while worklist:
        s = worklist.pop()
        members = xmembers[s]
        b = members.pop()
        if size[b] > size[members[-1]]:
            b, members[-1] = members[-1], b
        if len(members) > 1:
            worklist.append(s)
        xblock_of[b] = len(xmembers)
        xmembers.append([b])

        splitter = blocks[b]
        if len(splitter) != size[b]:
            splitter = blocks[b] = [v for v in splitter if block_of[v] == b]
        touched = []
        for v in splitter:
            for u in parents[v]:
                if not cb[u]:
                    touched.append(u)
                cb[u] += 1
        if parents_too:
            for v in splitter:
                for u in children[v]:
                    if not cb[u]:
                        touched.append(u)
                    cb[u] += n + 1
        groups: dict[int, list[int]] = {}  # one int key per (block, count or flag)
        if counting:
            for u in touched:
                groups.setdefault(cb[u] * n + block_of[u], []).append(u)
                cb[u] = 0
        else:
            cs, counts = xcount[s], {}
            xcount.append(counts)
            for u in touched:
                counts[u] = c = cb[u]
                cs[u] -= c  # now the count into S - B
                groups.setdefault(2 * block_of[u] + (cs[u] > 0), []).append(u)
                cb[u] = 0

        # Move each group out of its block unless it is all that is left.
        for us in groups.values():
            d = block_of[us[0]]
            if len(us) == size[d]:
                continue
            nb = len(blocks)
            blocks.append(us)
            size.append(len(us))
            size[d] -= len(us)
            for u in us:
                block_of[u] = nb
            h = xblock_of[d]
            xblock_of.append(h)
            xmembers[h].append(nb)
            if len(xmembers[h]) == 2:
                worklist.append(h)
        if len(blocks) == n:
            break
    return block_of


def _search_order(children, parents, size) -> list[int]:
    """The order in which ``_search`` maps the nodes, given each node's
    colour-class size: smallest class first, then the most neighbours
    (children or parents) already placed, then the smallest id.  So each
    node is checked, as early as possible, against mapped nodes next to it,
    as in VF2++ (Juttner & Madarasi, Discrete Appl. Math. 2018).

    A node alone in its colour class adds no connectivity: the colours are
    equitable, so every node of a colour is adjacent to it or none is, and
    checking against it never prunes.  One heap with lazy deletion gives
    O((n + m) log n).
    """
    n = len(size)
    order = []
    placed = [False] * n
    conn = [0] * n
    # One int key per entry: (size, -conn, id) packed base n, since conn < n.
    heap = [k * n * n + u for u, k in enumerate(size)]
    heapq.heapify(heap)
    while heap:
        u = heapq.heappop(heap) % n
        if placed[u]:  # an entry made stale by a later, better one
            continue
        placed[u] = True
        order.append(u)
        if size[u] == 1:
            continue
        for v in children[u] | parents[u]:
            if not placed[v]:
                conn[v] += 1
                heapq.heappush(heap, (size[v] * n - conn[v]) * n + v)
    return order


def _search(ch1, root1: int, ch2, root2: int, orbit=None):
    """The package's one backtracking search: a generator of every bijection
    from graph 1 onto graph 2 that maps root1 to root2 and preserves and
    reflects edges, as a tuple of images, and the order in which it maps
    the nodes of graph 1.

    The search colours the nodes itself, by one ``_refine`` over child and
    parent counts with the roots seeded: over the disjoint union of the two
    graphs, or over graph 1 alone when graph 2 is the same graph under the
    same root.  The colours are invariant under every map sought, and nodes
    of one colour have equal degrees.  Where the sizes or the colour
    multisets differ, no map exists and none is produced.  Nodes are mapped
    in the connectivity-first order of ``_search_order``, each to the unused
    nodes of its colour in ascending order, so the results come in a fixed
    order.  Self-loops are never checked directly: every other edge is, so
    a degree-preserving map carries loops onto loops.

    A caller may ``send`` a depth d back for a leaf: the search then cuts
    back to depth d, keeping the images of the first d nodes of the order
    and trying the next image for node d, so no further leaf of the
    current subtree at depth d is produced.  The caller picks d from the
    order.  An automorphism search may also pass ``orbit``, an orbit id per
    node that the caller updates as leaves come back.  While the first d
    nodes of the order are mapped to themselves, node d then tries itself
    first and skips the rest of its orbit.
    """
    n = len(ch1)
    same = ch2 is ch1 and root2 == root1  # an automorphism search
    off = 0 if same else n  # graph 2's node ids in the graph coloured
    graph = ch1 if same else [*ch1, *[frozenset(map(off.__add__, kids)) for kids in ch2]]
    init = [0] * len(graph)
    init[root1] = init[off + root2] = 1  # every map sought sends root1 to root2
    colors = _refine(graph, init, counting=True, parents_too=True)
    colors1, colors2 = colors[:n], colors[off:]
    if not same and sorted(colors1) != sorted(colors2):  # so also where sizes differ
        return iter(()), []
    par1 = _parent_sets(ch1)
    par2 = par1 if ch2 is ch1 else _parent_sets(ch2)
    by_color: dict[int, list[int]] = {}
    for w in range(n):
        by_color.setdefault(colors2[w], []).append(w)
    order = _search_order(ch1, par1, [len(by_color[colors1[u]]) for u in range(n)])

    def leaves() -> Iterator[tuple[int, ...]]:
        fwd = [-1] * n
        rev = [-1] * n

        def consistent(u: int, w: int) -> bool:
            for c in ch1[u]:
                if fwd[c] >= 0 and fwd[c] not in ch2[w]:
                    return False
            for p in par1[u]:
                if fwd[p] >= 0 and w not in ch2[fwd[p]]:
                    return False
            for c in ch2[w]:
                if rev[c] >= 0 and rev[c] not in ch1[u]:
                    return False
            for p in par2[w]:
                if rev[p] >= 0 and u not in ch1[rev[p]]:
                    return False
            return True

        # fixed[k], kept with orbit: the first k nodes are mapped to themselves,
        # so node k -> itself keeps every mapped edge and needs no check.
        fixed = [False] * n

        def candidates(k: int) -> Iterator[int]:
            u = order[k]
            ws = by_color[colors1[u]]
            if orbit is None:
                return iter(ws)
            fixed[k] = not k or fixed[k - 1] and fwd[order[k - 1]] == order[k - 1]
            if not fixed[k]:
                return iter(ws)
            return itertools.chain((u,), (w for w in ws if orbit[w] != orbit[u]))

        # Depth-first over an explicit stack of candidate iterators, one per
        # mapped node, so the depth is not bounded by Python's recursion limit.
        stack = [candidates(0)]
        while stack:
            k = len(stack) - 1
            u = order[k]
            if fwd[u] >= 0:  # undo this depth's previous choice
                rev[fwd[u]] = -1
                fwd[u] = -1
            for w in stack[-1]:
                if rev[w] < 0 and (w == u and fixed[k] or consistent(u, w)):
                    fwd[u], rev[w] = w, u
                    break
            else:
                stack.pop()
                continue
            if len(stack) == n:
                depth = yield tuple(fwd)
                if depth is not None:
                    for v in order[depth + 1:]:
                        rev[fwd[v]] = -1
                        fwd[v] = -1
                    del stack[depth + 1:]
            else:
                stack.append(candidates(len(stack)))

    return leaves(), order


def pointed_isomorphic(
    g1: Apg, g2: Apg, cap: int = DEFAULT_ISO_CAP
) -> Optional[dict[int, int]]:
    """Root-preserving, edge-preserving-and-reflecting bijection, or None.

    Iterated degree/class refinement prunes the backtracking; the answer
    does not depend on node numbering.
    """
    if max(g1.node_count, g2.node_count) > cap:
        raise SizeLimitExceeded(f"isomorphism search capped at {cap} nodes")
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return None
    found = _pointed_iso(g1.children, g1.root, g2.children, g2.root)
    return None if found is None else dict(enumerate(found))


def _pointed_iso(ch1, root1: int, ch2, root2: int) -> Optional[tuple[int, ...]]:
    """``pointed_isomorphic`` on bare child sets of equal node and edge
    counts, with no cap: an isomorphism as a tuple of images, or None.
    Equal child sets under equal roots give the identity at once; other
    graphs, the search's first map."""
    if root1 == root2 and ch1 == ch2:
        return tuple(range(len(ch1)))
    return next(_search(ch1, root1, ch2, root2)[0], None)
