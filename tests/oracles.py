"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's partition-refinement and
backtracking machinery: bisimulation is a greatest-fixpoint over node
pairs, counting partitions and colour refinement are rounds of sorted
signatures, isomorphism is brute force over bijections, unfolding shapes are
computed by depth-indexed dynamic programming, and the Mostowski collapse
works rank stratum by rank stratum with hereditary frozensets.
"""

from __future__ import annotations

import itertools

from hypersets.apg import Apg, Partition, trim_to_accessible


def naive_bisimulation(g: Apg) -> Partition:
    """O(n^2) greatest fixpoint on the all-pairs relation."""
    n = g.node_count
    rel = [[True] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(n):
                if not rel[u][v]:
                    continue
                ok = all(
                    any(rel[c][d] for d in g.children[v]) for c in g.children[u]
                ) and all(
                    any(rel[c][d] for c in g.children[u]) for d in g.children[v]
                )
                if not ok:
                    rel[u][v] = False
                    changed = True
    class_of = []
    reps: list[int] = []
    for u in range(n):
        for i, r in enumerate(reps):
            if rel[u][r]:
                class_of.append(i)
                break
        else:
            reps.append(u)
            class_of.append(len(reps) - 1)
    return Partition.from_class_of(class_of)


def naive_counting_partition(g: Apg, init=None) -> Partition:
    """Signature rounds from ``init`` (one class when None): split by the
    class and the sorted tuple of child classes until the class count stops
    growing.  One round per level of a chain."""
    classes = [0] * g.node_count if init is None else list(init)
    ncl = len(set(classes))
    while True:
        table: dict[tuple, int] = {}
        nxt = [
            table.setdefault((classes[u], tuple(sorted(classes[v] for v in kids))), len(table))
            for u, kids in enumerate(g.children)
        ]
        if len(table) == ncl:
            return Partition.from_class_of(nxt)
        classes, ncl = nxt, len(table)


def naive_stable_colors(children, init: list[int]) -> list[int]:
    """Signature rounds over (colour, child-colour multiset, parent-colour
    multiset) until the number of colours stops growing."""
    parents: list[list[int]] = [[] for _ in children]
    for u, kids in enumerate(children):
        for v in kids:
            parents[v].append(u)
    colors = list(init)
    ncolors = len(set(colors))
    while True:
        table: dict = {}
        nxt = [
            table.setdefault(
                (
                    colors[u],
                    tuple(sorted(colors[v] for v in children[u])),
                    tuple(sorted(colors[v] for v in parents[u])),
                ),
                len(table),
            )
            for u in range(len(colors))
        ]
        if len(table) == ncolors:
            return nxt
        colors, ncolors = nxt, len(table)


def reference_quotient(g: Apg, p: Partition) -> tuple[Apg, tuple[int, ...]]:
    """The quotient as ``quotient``'s docstring states it: each class one
    node whose children are the classes of its members' children, numbered
    breadth-first from the root's class, child classes visited in ascending
    order of their smallest member."""
    members: dict[int, list[int]] = {}
    for u, c in enumerate(p.class_of):
        members.setdefault(c, []).append(u)
    kids = {c: {p.class_of[v] for u in us for v in g.children[u]} for c, us in members.items()}
    new_id = {p.class_of[g.root]: 0}
    queue = [p.class_of[g.root]]
    for c in queue:
        for d in sorted(kids[c], key=lambda d: min(members[d])):
            if d not in new_id:
                new_id[d] = len(new_id)
                queue.append(d)
    children = [frozenset()] * len(new_id)
    for c, i in new_id.items():
        children[i] = frozenset(new_id[d] for d in kids[c])
    return Apg(tuple(children), 0), tuple(new_id[c] for c in p.class_of)


def brute_force_pointed_iso(g1: Apg, g2: Apg) -> bool:
    """Exhaustive bijection search; only sensible for <= 7 nodes."""
    n = g1.node_count
    if n != g2.node_count:
        return False
    others1 = [u for u in range(n) if u != g1.root]
    others2 = [u for u in range(n) if u != g2.root]
    for images in itertools.permutations(others2):
        perm = {g1.root: g2.root}
        perm.update(zip(others1, images))
        if all(
            frozenset(perm[v] for v in g1.children[u]) == g2.children[perm[u]]
            for u in range(n)
        ):
            return True
    return False


def brute_force_automorphisms(g: Apg) -> list[tuple[int, ...]]:
    """Every root-fixing permutation that maps each child set onto the
    child set of the image, in lexicographic order; <= 8 nodes."""
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
    return sorted(out)


def brute_force_automorphism_count(g: Apg) -> int:
    return len(brute_force_automorphisms(g))


# --- truncated-unfolding shapes ----------------------------------------------

def shape_ids_at_depth(g: Apg, depth: int) -> list[int]:
    """Interned isomorphism types of the depth-truncated unfolding trees.

    shape(u, 0) is a blank leaf; shape(u, d+1) is the multiset of the
    children's shape(., d).  Equal ids mean isomorphic truncated unfoldings
    (computed on the graph, never materializing the exponential tree).
    The intern table is shared across calls so ids are comparable between
    graphs.
    """
    shapes = [0] * g.node_count
    for _ in range(depth):
        shapes = [
            _intern(tuple(sorted(shapes[v] for v in g.children[u])))
            for u in range(g.node_count)
        ]
    return shapes


_INTERN: dict[tuple, int] = {}


def _intern(key: tuple) -> int:
    if key not in _INTERN:
        _INTERN[key] = len(_INTERN) + 1
    return _INTERN[key]


def safa_equal_by_unfolding(g1: Apg, g2: Apg) -> bool:
    """SAFA equality decided purely with truncated-unfolding isomorphism.

    Nodes whose truncated unfoldings (depth past the stabilization point)
    are isomorphic denote equal sets, so they merge; merging can collapse
    parallel edges and enable more merging, so the quotient is iterated.
    The final graphs are compared by the same truncated-unfolding shape.
    No partition refinement and no backtracking search is involved.
    """
    ch1, r1 = _unfolding_fixpoint(g1)
    ch2, r2 = _unfolding_fixpoint(g2)
    depth = len(ch1) + len(ch2) + 1
    s1 = _graph_shapes(ch1, depth)
    s2 = _graph_shapes(ch2, depth)
    return s1[r1] == s2[r2]


def _graph_shapes(children: dict, depth: int) -> dict:
    shapes = {k: 0 for k in children}
    for _ in range(depth):
        shapes = {
            k: _intern(tuple(sorted(shapes[c] for c in children[k])))
            for k in children
        }
    return shapes


def _unfolding_fixpoint(g: Apg) -> tuple[dict[int, frozenset[int]], int]:
    """Iteratively merge unfolding-isomorphic nodes; returns the children
    dict of the collapsed graph and its root key."""
    children = {u: frozenset(g.children[u]) for u in range(g.node_count)}
    root = g.root
    while True:
        shapes = _graph_shapes(children, len(children) + 1)
        rep: dict[int, int] = {}
        chosen: dict[int, int] = {}
        for k in sorted(children):
            chosen.setdefault(shapes[k], k)
            rep[k] = chosen[shapes[k]]
        if all(rep[k] == k for k in children):
            return children, root
        children = {
            r: frozenset(rep[c] for c in children[r])
            for r in set(rep.values())
        }
        root = rep[root]
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in children[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        children = {k: v for k, v in children.items() if k in seen}


# --- Mostowski collapse -------------------------------------------------------

def mostowski_collapse(g: Apg) -> Apg:
    """Canonical picture of a well-founded graph via hereditary frozensets,
    built rank stratum by rank stratum."""
    from hypersets.apg import rank_map

    ranks = rank_map(g)
    value: dict[int, frozenset] = {}
    for u in sorted(range(g.node_count), key=lambda u: ranks[u]):
        value[u] = frozenset(value[v] for v in g.children[u])

    ids: dict[frozenset, int] = {}
    for u in sorted(value, key=lambda u: ranks[u]):
        ids.setdefault(value[u], len(ids))
    children = {
        ids[val]: sorted(ids[m] for m in val) for val in ids
    }
    collapsed, _ = trim_to_accessible(children, ids[value[g.root]])
    return collapsed


def afa_equal_via_union(g1: Apg, g2: Apg) -> bool:
    """AFA equality shortcut: are the roots bisimilar in the disjoint union?"""
    from hypersets.equivalence import max_bisimulation

    offset = g1.node_count
    children = tuple(g1.children) + tuple(
        frozenset(v + offset for v in kids) for kids in g2.children
    )
    # join under a fresh root so the union is accessible
    joined = children + (frozenset((g1.root, g2.root + offset)),)
    g = Apg(joined, len(joined) - 1)
    p = max_bisimulation(g)
    return p.same_class(g1.root, g2.root + offset)


def equal_by_canonical_forms(g1: Apg, g2: Apg, s, cap: int = 512) -> bool:
    """Equality as decided pair by pair before the joint canonicalization:
    canonicalize each graph on its own, then search for a pointed
    isomorphism between the two canonical forms."""
    from hypersets.apg import pointed_isomorphic
    from hypersets.canon import canonicalize

    c1 = canonicalize(g1, s, cap=cap).canonical
    c2 = canonicalize(g2, s, cap=cap).canonical
    return pointed_isomorphic(c1, c2, cap=cap) is not None


def naive_finsler_partition(g: Apg, same=brute_force_pointed_iso) -> Partition:
    """Trim every node's sub-APG and group the nodes whose sub-APGs are
    pointed-isomorphic by ``same`` (brute force, so <= 7 nodes, by default),
    without the counting-class buckets."""
    raw = {u: sorted(g.children[u]) for u in range(g.node_count)}
    subs = [trim_to_accessible(raw, u)[0] for u in range(g.node_count)]
    reps: list[int] = []
    class_of = []
    for u in range(g.node_count):
        for i, r in enumerate(reps):
            if same(subs[u], subs[r]):
                class_of.append(i)
                break
        else:
            reps.append(u)
            class_of.append(len(reps) - 1)
    return Partition.from_class_of(class_of)


# --- the settle loop before it ran on bare child sets ---------------------------
#
# Differential references, not independent ones: they reuse the library's
# partitions, ``quotient`` and isomorphism search, but build an ``Apg`` and a
# ``Partition`` every round and always run the round that finds the
# partition discrete.

def _reference_partition(g: Apg, s, cap: int) -> Partition:
    from hypersets.apg import pointed_isomorphic
    from hypersets.canon import Semantics
    from hypersets.equivalence import counting_partition, max_bisimulation
    from hypersets.errors import SizeLimitExceeded

    if s is Semantics.AFA:
        return max_bisimulation(g)
    if s is Semantics.SAFA:
        return counting_partition(g)
    if g.node_count > cap:
        raise SizeLimitExceeded(f"finsler partition capped at {cap} nodes")
    return naive_finsler_partition(
        g, lambda a, b: pointed_isomorphic(a, b, cap=cap) is not None
    )


def _reference_settle(g: Apg, s, cap: int):
    from hypersets.apg import quotient
    from hypersets.canon import Semantics

    decoration = list(range(g.node_count))
    while True:
        p = _reference_partition(g, s, cap)
        if s is Semantics.AFA or p.is_discrete:
            return g, decoration, p
        g, proj = quotient(g, p)
        decoration = [proj[c] for c in decoration]


def reference_canonicalize(g: Apg, s, cap: int = 512) -> tuple[Apg, tuple[int, ...]]:
    """The canonical graph and decoration, quotienting until the mode's
    partition is discrete and then once more to re-index."""
    from hypersets.apg import quotient

    cur, decoration, p = _reference_settle(g, s, cap)
    cur, proj = quotient(cur, p)
    return cur, tuple(proj[c] for c in decoration)


def reference_equality_classes(graphs, s, cap: int = 512) -> list[int]:
    """AFA and SAFA: settle the disjoint union under a fresh root as an
    ``Apg``; FAFA: group the canonical forms by pointed isomorphism."""
    from hypersets.apg import pointed_isomorphic
    from hypersets.canon import Semantics

    if s is Semantics.FAFA:
        reps: list[Apg] = []
        out = []
        for g in graphs:
            pic = reference_canonicalize(g, s, cap)[0]
            for i, rep in enumerate(reps):
                if pointed_isomorphic(pic, rep, cap=cap) is not None:
                    out.append(i)
                    break
            else:
                out.append(len(reps))
                reps.append(pic)
        return out
    children: list[frozenset[int]] = [frozenset()]
    roots = []
    for g in graphs:
        offset = len(children)
        roots.append(g.root + offset)
        children.extend(frozenset(v + offset for v in kids) for kids in g.children)
    children[0] = frozenset(roots)
    _, decoration, p = _reference_settle(Apg(tuple(children), 0), s, cap)
    return list(Partition.from_class_of(p.class_of[decoration[r]] for r in roots).class_of)


def reference_is_canonical_picture(g: Apg, s, cap: int = 512):
    """Discreteness of the mode's partition (FAFA: plain extensionality
    first), with the first two members of the first doubled class."""
    from hypersets.canon import Semantics

    if s is Semantics.FAFA:
        seen: dict[frozenset[int], int] = {}
        for u, kids in enumerate(g.children):
            if kids in seen:
                return False, (seen[kids], u)
            seen[kids] = u
    for members in _reference_partition(g, s, cap).classes():
        if len(members) > 1:
            return False, (members[0], members[1])
    return True, None


def check_membership_iso(u, f: dict[int, int]) -> None:
    """Independent verifier: f is a partial membership isomorphism between
    transitive subsets of the universe u."""
    dom = set(f)
    ran = set(f.values())
    assert len(ran) == len(dom), "not injective"
    for i in dom:
        assert u.members(i) <= dom, f"domain not transitive at {i}"
    for j in ran:
        assert u.members(j) <= ran, f"range not transitive at {j}"
    for i in dom:
        for k in dom:
            assert (k in u.members(i)) == (f[k] in u.members(f[i])), (
                f"membership not preserved for {k} in {i}"
            )


# --- cycles and rank -----------------------------------------------------------

def reaches_cycle(children, resolved=frozenset()) -> set:
    """The nodes u, outside ``resolved``, that reach (by zero or more edges)
    some v that reaches itself by one or more edges.  ``resolved`` nodes are
    leaves: their own edges are ignored, so they lie on no cycle."""

    def reach_plus(u) -> set:
        out: set = set()
        todo = [u]
        while todo:
            w = todo.pop()
            if w in resolved:
                continue
            for c in children[w]:
                if c not in out:
                    out.add(c)
                    todo.append(c)
        return out

    plus = {u: reach_plus(u) for u in children if u not in resolved}
    on_cycle = {v for v, r in plus.items() if v in r}
    return {u for u, r in plus.items() if u in on_cycle or r & on_cycle}


def naive_rank(g: Apg):
    """Von Neumann rank by fixpoint: rank each node once all its children
    are ranked, until nothing changes.  None when some node is never ranked,
    that is, when g is not well-founded."""
    rank: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for u in range(g.node_count):
            if u not in rank and all(v in rank for v in g.children[u]):
                rank[u] = max((rank[v] + 1 for v in g.children[u]), default=0)
                changed = True
    return rank if len(rank) == g.node_count else None


# --- structure maps and groups ------------------------------------------------

def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """Every product of the permutations gens of range(n), found by
    breadth-first search from the identity over products with one more
    generator."""
    identity = tuple(range(n))
    seen = {identity}
    layer = [identity]
    while layer:
        nxt = []
        for q in layer:
            for r in gens:
                p = tuple(q[r[i]] for i in range(n))
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        layer = nxt
    return seen


def exhaustive_automorphisms(g: Apg) -> list[tuple[int, ...]]:
    """The root-preserving automorphisms of g as ``canon.automorphisms``
    listed them before it read a stabilizer chain: every leaf of the one
    search, sorted.  Its cost grows with the group's order."""
    from hypersets.apg import _search

    return sorted(_search(g.children, g.root, g.children, g.root)[0])


def assert_irredundant_generators(gens, elements, n: int) -> None:
    """Each generator lies outside the group the earlier ones generate, and
    together they generate exactly the elements."""
    for i, p in enumerate(gens):
        assert p not in generated_group(gens[:i], n), (i, gens)
    assert generated_group(gens, n) == set(elements), gens


def pairwise_membership_exact(u, m) -> bool:
    """x in y <=> m(x) in m(y) for every pair of top-level elements of the
    levelled universe u, one pair at a time."""
    tmembers = m.target.members
    for y in u.top:
        my = m.full_map[y]
        for x in u.top:
            if (x in u.members[y]) != (m.full_map[x] in tmembers[my]):
                return False
    return True


def _quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _table(elements, product) -> list[list[int]]:
    index = {x: i for i, x in enumerate(elements)}
    return [[index[product(x, y)] for y in elements] for x in elements]


def small_groups() -> dict[str, list[list[int]]]:
    """One multiplication table per isomorphism class of groups of order 1
    to 12, 24 in all, each written out from its own arithmetic: cyclic
    groups by addition, products by pairs, the dihedral groups as r^i s^j
    with s r s = r^-1, Q8 from the quaternion units, A4 from the even
    permutations of four points, and Dic3 as Z3 x| Z4, whose generator
    inverts Z3."""
    def cyclic(n):
        return _table(range(n), lambda x, y: (x + y) % n)

    def product(m, n):
        pairs = [(a, b) for a in range(m) for b in range(n)]
        return _table(pairs, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n))

    def semidirect(m, n):  # Z_m x| Z_n, each generator of Z_n inverting Z_m
        pairs = [(a, b) for a in range(m) for b in range(n)]
        return _table(pairs, lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % m,
                                           (x[1] + y[1]) % n))

    units = [tuple(s if k == i else 0 for k in range(4)) for i in range(4) for s in (1, -1)]
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    return {
        "z1": cyclic(1), "z2": cyclic(2), "z3": cyclic(3),
        "z4": cyclic(4), "v4": _table(range(4), lambda x, y: x ^ y),
        "z5": cyclic(5),
        "z6": cyclic(6), "s3": semidirect(3, 2),
        "z7": cyclic(7),
        "z8": cyclic(8), "z4xz2": product(4, 2), "z2^3": _table(range(8), lambda x, y: x ^ y),
        "d4": semidirect(4, 2), "q8": _table(units, _quaternion_product),
        "z9": cyclic(9), "z3^2": product(3, 3),
        "z10": cyclic(10), "d5": semidirect(5, 2),
        "z11": cyclic(11),
        "z12": cyclic(12), "z6xz2": product(6, 2), "d6": semidirect(6, 2),
        "dic3": semidirect(3, 4),
        "a4": _table(even, lambda p, q: tuple(p[q[i]] for i in range(4))),
    }


def a_g_picture(rows) -> Apg:
    """The picture of A_G written out from its definition, for the group
    with multiplication table ``rows``: a Quine atom a_g per element, the
    von Neumann numerals, and r(g, h) = <r(g, h), a_g, h, a_(g*h)> with
    right-nested Kuratowski pairs, under a root whose members are all of
    them.  Sets with the same members are stored once, so {a_g} is a_g;
    each r(g, h) and the two sets inside it that contain it are new."""
    children: list[frozenset] = []
    stored: dict[frozenset, int] = {}

    def new(members=()) -> int:
        children.append(frozenset(members))
        return len(children) - 1

    def node(members) -> int:
        members = frozenset(members)
        if members not in stored:
            stored[members] = new(members)
        return stored[members]

    def pair(a: int, b: int) -> int:
        return node({node({a}), node({a, b})})

    n = len(rows)
    for g in range(n):
        stored[frozenset({g})] = new({g})
    numerals: list[int] = []
    for _ in range(n):
        numerals.append(node(numerals))
    for g in range(n):
        for h in range(n):
            r = new()
            tail = pair(g, pair(numerals[h], rows[g][h]))
            children[r] = frozenset({new({r}), new({r, tail})})
    root = new(range(len(children)))
    return Apg(tuple(children), root)


# --- the per-name solve path, kept as the reference for the joint one ---------
# Each name's graph is trimmed out of the program on its own and
# canonicalized on its own (Boffa: ``Universe.picture_of`` per set id), the
# classes are read off the pictures, and every picture is printed by the
# ``unparse`` below, which reads each graph's facts afresh.

def reference_solve_names(program, mode: str, cap: int = 512, names=None):
    """Canonical picture and equality class id of each name, as two dicts
    in name order."""
    from hypersets.boffa import Universe
    from hypersets.apg import pointed_isomorphic
    from hypersets.canon import Semantics, canonicalize, equality_classes
    from hypersets.errors import UndefinedName
    from hypersets.hsl import flatten, flatten_into

    if mode == "boffa":
        u = Universe()
        ids = flatten_into(program, u)
        if names is None:
            names = list(ids)
        for name in names:
            if name not in ids:
                raise UndefinedName(f"name {name!r} is not defined")
        return {name: u.picture_of(ids[name]) for name in names}, {name: ids[name] for name in names}
    graphs = flatten(program, names)
    s = Semantics(mode)
    pics = {name: canonicalize(g, s, cap=cap).canonical for name, g in graphs.items()}
    if s is Semantics.FAFA:  # the pictures are canonical: group them as they are
        reps: list[Apg] = []
        classes = {}
        for name, pic in pics.items():
            for i, rep in enumerate(reps):
                if pointed_isomorphic(pic, rep, cap=cap) is not None:
                    classes[name] = i
                    break
            else:
                classes[name] = len(reps)
                reps.append(pic)
        return pics, classes
    return pics, dict(zip(pics, equality_classes(list(pics.values()), s, cap=cap)))


def reference_solve_output(pics: dict, classes: dict, mode: str, as_json: bool = False) -> str:
    """What ``hypersets solve`` prints, with ``--json`` or without, for the
    pictures and classes ``reference_solve_names`` returns."""
    import json

    names = list(pics)
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs.append((a, b, classes[a] == classes[b]))
    if as_json:
        doc = {
            "mode": mode,
            "sets": {name: reference_unparse(pics[name]) for name in names},
            "pairs": [{"a": a, "b": b, "equal": e} for a, b, e in pairs],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = []
    for name in names:
        out.append(f"set {name}")
        out.append(reference_unparse(pics[name]).rstrip("\n"))
        out.append("")
    for a, b, e in pairs:
        out.append(f"{'equal' if e else 'distinct'} {a} {b}")
    return "\n".join(out).rstrip("\n") + "\n"


def reference_unparse(g: Apg) -> str:
    """Equation system reproducing g up to pointed isomorphism, with the
    numeral and pair sugar, from g's own parent sets and numeral values."""
    from hypersets.apg import _bfs, _parent_sets

    order = _bfs(g.root, [sorted(kids) for kids in g.children])
    pos = {u: i for i, u in enumerate(order)}
    parents = _parent_sets(g.children)

    num_val = _reference_numeral_values(g)

    skip: set[int] = set()
    sugar: dict[int, object] = {}

    for u in order:  # at most one numeral: a program's numerals share one chain
        k = num_val[u]
        if k is None:
            continue
        # u and its k children already make k + 1 nodes
        reach = _reference_reach(g, u, k + 1)
        if reach is None:
            continue
        interior = reach - {u}
        if g.root in interior:
            continue
        if any(not parents[d] <= reach for d in interior):
            continue
        sugar[u] = str(k)
        skip |= interior
        break

    for u in order:
        if u in sugar or u in skip:
            continue
        decoded = _reference_decode_pair(g, u, parents, skip)
        if decoded is None:
            continue
        a, b, w1, w2 = decoded
        if a in skip or b in skip:
            continue
        sugar[u] = ("pair", a, b)
        skip |= {w1, w2}

    def name(u: int) -> str:
        return f"x{pos[u]}"

    lines = []
    for u in order:
        if u in skip:
            continue
        s = sugar.get(u)
        if isinstance(s, str):
            lines.append(f"{name(u)} = {s};")
        elif isinstance(s, tuple):
            _, a, b = s
            lines.append(f"{name(u)} = <{name(a)}, {name(b)}>;")
        else:
            kids = sorted(g.children[u], key=lambda v: pos[v])
            inner = ", ".join(name(v) for v in kids)
            lines.append(f"{name(u)} = {{{inner}}};")
    return "\n".join(lines) + "\n"


def _reference_reach(g: Apg, u: int, limit: int):
    seen = {u}
    stack = [u]
    while stack:
        for v in g.children[stack.pop()]:
            if v not in seen:
                if len(seen) == limit:
                    return None
                seen.add(v)
                stack.append(v)
    return seen


def _reference_numeral_values(g: Apg) -> list:
    from hypersets.apg import _postorder

    vals: list = [None] * g.node_count
    for u in _postorder(range(g.node_count), g.children):
        kid_vals = [vals[v] for v in g.children[u]]
        if None not in kid_vals and sorted(kid_vals) == list(range(len(kid_vals))):
            vals[u] = len(kid_vals)
    return vals


def _reference_decode_pair(g: Apg, u: int, parents, skip: set[int]):
    from hypersets.hsl import _pair_parts

    parts = _pair_parts(u, g.children.__getitem__)
    if parts is None:
        return None
    a, b, w1, w2 = parts
    if {w1, w2} & {a, b, g.root} or w1 in skip or w2 in skip:
        return None
    return parts if parents[w1] == {u} == parents[w2] else None


# --- Boffa insertion: the fixpoint loop the congruence closure replaced ------

def reference_merge_duplicates(children: dict) -> dict:
    """Merge nodes with literally identical child sets until none remain,
    mutating ``children``; returns the key -> representative map.  One
    round per nesting level, each rehashing every child set; in a group
    the first old key wins, else the first key in insertion order."""
    rep = {k: k for k in children}
    while True:
        groups: dict[frozenset, list] = {}
        for k, kids in children.items():
            groups.setdefault(frozenset(kids), []).append(k)
        merges = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            winner = next((k for k in members if k[0] == "old"), members[0])
            for k in members:
                if k is not winner:
                    merges[k] = winner
        if not merges:
            return rep
        children_new: dict = {}
        for k, kids in children.items():
            if k in merges:
                continue
            children_new[k] = [merges.get(c, c) for c in kids]
        children.clear()
        children.update(children_new)
        for k, r in rep.items():
            rep[k] = merges.get(r, r)
