"""Transitive sets with a prescribed automorphism group.

From a finite group G, build in a Boffa universe: one Quine atom a_g per
element, the von Neumann numerals coding G's elements, and for every pair
(g, h) a self-referential tuple

    r(g, h) = <r(g, h), a_g, numeral(h), a_(g*h)>.

The transitive closure of all of that is a set whose membership
automorphisms are exactly the left translations of G: an automorphism must
fix the numerals (well-founded, rigid, pairwise non-isomorphic), permute
the atoms, and send each r(g, h) to r(pi(g), h), which forces
pi(g*h) = pi(g)*h and hence pi = left translation by pi(identity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .apg import DEFAULT_ISO_CAP, Apg
from .boffa import Universe
from .canon import automorphisms
from .errors import OrderTooLarge
from .hsl import (
    AtomDecl, Definition, HslProgram, NameRef, SetTerm, TupleTerm, flatten_into,
)


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table over 0..n-1."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be order x order")
        for row in self.table:
            for x in row:
                if type(x) is not int or not (0 <= x < n):
                    raise ValueError(f"table entry {x!r} is not an element 0..{n - 1}")
        e = self.identity
        if any(self.table[e][i] != i or self.table[i][e] != i for i in range(n)):
            raise ValueError("identity law fails")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError("associativity fails")
        for i in range(n):
            if not any(
                self.table[i][j] == e and self.table[j][i] == e for j in range(n)
            ):
                raise ValueError(f"element {i} has no inverse")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GroupTable":
        rows = tuple(
            tuple(r) if isinstance(r, Sequence) and not isinstance(r, (str, bytes)) else None
            for r in rows)
        n = len(rows)
        if any(r is None or len(r) != n for r in rows):
            raise ValueError("table must be n rows of n entries")
        identity = next(
            (i for i in range(n)
             if all(rows[i][j] == j and rows[j][i] == j for j in range(n))),
            None,
        )
        if identity is None:
            raise ValueError("table has no identity element")
        return cls(n, rows, identity)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k


def cyclic_group(n: int) -> GroupTable:
    return GroupTable(n, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0)


def klein_four_group() -> GroupTable:
    return GroupTable(4, tuple(tuple(i ^ j for j in range(4)) for i in range(4)), 0)


def symmetric_group_3() -> GroupTable:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms
    )
    return GroupTable(6, table, index[(0, 1, 2)])


PRESETS = {
    "z1": partial(cyclic_group, 1),
    "z2": partial(cyclic_group, 2),
    "z3": partial(cyclic_group, 3),
    "z4": partial(cyclic_group, 4),
    "v4": klein_four_group,
    "s3": symmetric_group_3,
}
PRESET_NAMES = tuple(PRESETS)


def preset_group(name: str) -> GroupTable:
    name = name.lower()
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return PRESETS[name]()


# --- the A_G construction ----------------------------------------------------

@dataclass
class AgArtifact:
    group: GroupTable
    universe: Universe
    root: int
    atom_ids: tuple[int, ...]
    numeral_ids: tuple[int, ...]
    gadget_ids: dict[tuple[int, int], int]


def build_A_G(group: GroupTable) -> AgArtifact:
    """Materialize A_G = TC(atoms a_g, tuples r(g,h)) in a fresh universe,
    as one program: ``atom a{g};``, ``n{h} = {n0, ..., n(h-1)};`` and
    ``r_{g}_{h} = <r_{g}_{h}, a{g}, n{h}, a{g*h}>;``.  It takes no cap: its
    work is linear in the table, which ``GroupTable`` checked in O(n^3)."""
    elements = range(group.order)
    statements: list = [AtomDecl(f"a{g}") for g in elements]
    statements += [
        Definition(f"n{h}", SetTerm(tuple(NameRef(f"n{j}") for j in range(h)))) for h in elements
    ]
    statements += [
        Definition(f"r_{g}_{h}", TupleTerm(tuple(map(NameRef, (
            f"r_{g}_{h}", f"a{g}", f"n{h}", f"a{group.mul(g, h)}"
        ))))) for g in elements for h in elements
    ]
    u = Universe()
    ids = flatten_into(HslProgram(tuple(statements)), u)
    # The fresh universe holds exactly the transitive closure of A_G.
    root = u.add_set(list(u.sets))
    return AgArtifact(group, u, root, tuple(ids[f"a{g}"] for g in elements),
                      tuple(ids[f"n{h}"] for h in elements),
                      {(g, h): ids[f"r_{g}_{h}"] for g in elements for h in elements})


@dataclass
class AutGroupReport:
    table: GroupTable
    translations: dict[int, dict[int, int]]  # g -> automorphism as id map
    automorphism_count: int
    picture: Apg  # the picture of A_G searched, as ``Universe.picture_of`` gives it


def aut_group_of(art: AgArtifact, cap: int = DEFAULT_ISO_CAP) -> AutGroupReport:
    """Compute Aut(A_G) and identify it with left translations.

    The group's order is read off the stabilizer chain and must equal |G|
    before any element is listed.  Each automorphism of the picture of A_G
    is then translated back to a set-id permutation, and checked to fix
    every numeral, permute the atoms by a left translation pi, and send
    r(g, h) to r(pi(g), h).  The composition table of the automorphisms,
    each labelled by its pi(identity), is returned; it equals G's table.
    """
    u = art.universe
    group = art.group
    n = group.order
    pic, trans = u._picture(art.root)
    ids = list(trans)  # ids[node] is its set id: trans numbers the ids in insertion order

    auts = automorphisms(pic, cap=cap)
    if auts.order != n:
        raise AssertionError(f"A_G has {auts.order} automorphisms, not {n}")
    id_perms = [{i: ids[perm[node]] for i, node in trans.items()} for perm in auts.elements]

    atom_index = {a: g for g, a in enumerate(art.atom_ids)}
    translations: dict[int, dict[int, int]] = {}
    for id_perm in id_perms:
        for i in art.numeral_ids:
            if id_perm[i] != i:
                raise AssertionError(f"automorphism moves numeral id {i}")
        pi = {}
        for g, a in enumerate(art.atom_ids):
            image = id_perm[a]
            if image not in atom_index:
                raise AssertionError("automorphism does not permute the atoms")
            pi[g] = atom_index[image]
        g0 = pi[group.identity]
        for h in range(n):
            if pi[h] != group.mul(g0, h):
                raise AssertionError("atom permutation is not a left translation")
        for (g, h), r in art.gadget_ids.items():
            if id_perm[r] != art.gadget_ids[(pi[g], h)]:
                raise AssertionError("gadget does not follow the translation")
        if g0 in translations:  # n automorphisms, no two alike: each g occurs
            raise AssertionError(f"two automorphisms share translation {g0}")
        translations[g0] = id_perm

    # Translation by g after translation by h sends a_e to a_(g*h).
    a_e = art.atom_ids[group.identity]
    table = GroupTable.from_rows([
        [atom_index[translations[g][translations[h][a_e]]] for h in range(n)]
        for g in range(n)
    ])
    return AutGroupReport(table, translations, auts.order, pic)


# --- group isomorphism --------------------------------------------------------

def groups_isomorphic(g: GroupTable, h: GroupTable) -> bool:
    """Whether two groups of order at most 12 are isomorphic.

    A group of order below 16 is determined up to isomorphism by how many
    of its elements have each order, so two such groups are isomorphic
    exactly when their orders and sorted element orders are equal, and no
    map between them is searched for.  Order 16 is where that fails:
    Z4 x Z4 and Q8 x Z2 share their counts but only one is abelian.  So
    the cap, 12, may not pass 15 without a search; either order above it
    raises ``OrderTooLarge``.
    """
    if g.order > 12 or h.order > 12:
        raise OrderTooLarge("group isomorphism capped at order 12")
    return g.order == h.order and (
        sorted(map(g.element_order, range(g.order)))
        == sorted(map(h.element_order, range(h.order))))
