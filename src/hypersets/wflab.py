"""Explicit finite stages of the cumulative hierarchy over Quine atoms.

``build_universe`` enumerates WF_0(A) = A, WF_{k+1}(A) = P(WF_k(A)) with a
fixed set of atoms satisfying a = {a} literally: the singleton subset {a}
interns back onto the atom's own code, so atoms persist through every
level.  ``extend_map`` realizes the recursion that sends an atom map
sigma to the structure map

    sigma_bar(x) = sigma(x)        if x is an atom,
    sigma_bar(x) = sigma_bar[x]    otherwise (elementwise image),

which is an automorphism of the top level when sigma is a permutation and
a proper membership embedding when sigma lands in a larger atom pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .apg import DEFAULT_ISO_CAP, Apg
from .canon import AutomorphismGroup, automorphisms
from .errors import NotInjective, SizeLimitExceeded

DEFAULT_ELEMENT_CAP = 1 << 16


@dataclass
class LevelledUniverse:
    atoms: tuple[int, ...]
    levels: list[list[int]]            # levels[k] enumerates WF_k(A)
    members: dict[int, frozenset[int]]
    intern: dict[frozenset[int], int]
    first_level: dict[int, int]

    @property
    def top(self) -> list[int]:
        return self.levels[-1]

    def rank(self, code: int) -> int:
        """Least stage k with code in WF_{k+1}; atoms have rank 0."""
        return max(self.first_level[code] - 1, 0)

    @cached_property
    def _atom_set(self) -> frozenset[int]:
        return frozenset(self.atoms)

    @cached_property
    def _values(self) -> dict[int, object]:
        return {a: ("atom", a) for a in self.atoms}

    def hereditary_value(self, code: int):
        """Universe-independent structural value; atoms are tagged leaves.
        Each code's value is computed on its first read and kept."""
        values = self._values
        if code not in values:
            values[code] = frozenset(map(self.hereditary_value, self.members[code]))
        return values[code]


def stage_sizes(atom_count: int, levels: int, cap: int = DEFAULT_ELEMENT_CAP) -> list[int]:
    """|WF_0| .. |WF_levels| before any is built: |WF_0| is the atom count,
    |WF_k| = 2^|WF_(k-1)|, and the stages are cumulative, so the last counts
    every code.  Raises at the first level k >= 1 over the cap."""
    if atom_count < 0 or levels < 0:
        raise ValueError("atom count and levels must be >= 0")
    sizes = [atom_count]
    for k in range(1, levels + 1):
        if sizes[-1] > 30 or (1 << sizes[-1]) > cap:
            raise SizeLimitExceeded(f"level {k} would hold 2^{sizes[-1]} elements (cap {cap})")
        sizes.append(1 << sizes[-1])
    return sizes


def build_universe(
    atom_count: int, levels: int, cap: int = DEFAULT_ELEMENT_CAP
) -> LevelledUniverse:
    """Enumerate WF_0 .. WF_levels over ``atom_count`` fresh Quine atoms."""
    if stage_sizes(atom_count, levels, cap)[-1] > cap:
        raise SizeLimitExceeded(f"element count exceeds cap {cap}")
    atoms = tuple(range(atom_count))
    u = LevelledUniverse(
        atoms=atoms,
        levels=[list(atoms)],
        members={a: frozenset((a,)) for a in atoms},
        intern={frozenset((a,)): a for a in atoms},
        first_level={a: 0 for a in atoms},
    )
    next_code = atom_count
    for k in range(1, levels + 1):
        prev = u.levels[-1]
        level: list[int] = []
        for mask in range(1 << len(prev)):
            subset = frozenset(prev[i] for i in range(len(prev)) if mask >> i & 1)
            code = u.intern.get(subset)
            if code is None:
                code = next_code
                next_code += 1
                u.intern[subset] = code
                u.members[code] = subset
                u.first_level[code] = k
            level.append(code)
        u.levels.append(level)
    return u


@dataclass
class ExtendedMap:
    """An atom map's levelwise extension."""

    full_map: dict[int, int]
    source: LevelledUniverse
    target: LevelledUniverse


def extend_map(
    u: LevelledUniverse,
    sigma: Mapping[int, int],
    into: Optional[LevelledUniverse] = None,
) -> ExtendedMap:
    """Extend an injective atom map to the whole hierarchy, level by level."""
    target = into if into is not None else u
    if set(sigma) != set(u.atoms):
        raise ValueError("atom map must be defined on exactly the atoms")
    if len(set(sigma.values())) != len(sigma):
        raise NotInjective("atom map is not injective")
    for a, b in sigma.items():
        if b not in target._atom_set:
            raise ValueError(f"image {b} is not an atom of the target")
    if len(target.levels) < len(u.levels):
        raise ValueError("target universe has fewer levels than the source")

    full: dict[int, int] = dict(sigma)
    for level in u.levels[1:]:
        for c in level:
            if c in full:
                continue
            image = frozenset(full[m] for m in u.members[c])
            full[c] = target.intern[image]
    return ExtendedMap(full, u, target)


@dataclass
class MapReport:
    verdict: str                 # "automorphism" | "proper-embedding"
    injective: bool
    surjective_onto_top: bool
    membership_exact: bool
    pure_sets_fixed: bool
    rank_preserved: bool
    fixed_points: Optional[int]  # only meaningful within one universe


def classify_map(u: LevelledUniverse, m: ExtendedMap) -> MapReport:
    """Automorphism-or-embedding verdict plus a full verification report.

    Membership preservation x in y <=> m(x) in m(y) is checked for all
    pairs of top-level elements, not sampled: for each y, the top-level
    members of y must be exactly the top-level preimages of the members of
    m(y), which costs one pass over the members instead of one per pair.
    """
    if u is not m.source:
        raise ValueError("classify_map needs the map's own source universe")
    top = u.top
    target = m.target
    image = [m.full_map[x] for x in top]
    injective = len(set(image)) == len(top)
    surjective = set(image) == set(target.top)

    top_set = set(top)
    preimages: dict[int, list[int]] = {}
    for x, mx in zip(top, image):
        preimages.setdefault(mx, []).append(x)
    membership_exact = all(
        u.members[y] & top_set
        == {x for w in target.members[my] for x in preimages.get(w, ())}
        for y, my in zip(top, image)
    )

    pure = dict.fromkeys(u.atoms, False)  # no atom in the transitive closure

    def is_pure(x: int) -> bool:
        if x not in pure:
            pure[x] = all(map(is_pure, u.members[x]))
        return pure[x]

    pure_fixed = all(
        u.hereditary_value(x) == target.hereditary_value(m.full_map[x])
        for x in top
        if is_pure(x)
    )
    rank_ok = all(u.rank(x) == target.rank(m.full_map[x]) for x in top)
    # build_universe is deterministic: a target with the source's members is its own stage
    same_universe = target is u or target.members == u.members
    fixed = sum(1 for x in top if m.full_map[x] == x) if same_universe else None
    verdict = "automorphism" if same_universe and surjective else "proper-embedding"
    return MapReport(
        verdict=verdict,
        injective=injective,
        surjective_onto_top=surjective,
        membership_exact=membership_exact,
        pure_sets_fixed=pure_fixed,
        rank_preserved=rank_ok,
        fixed_points=fixed,
    )


@dataclass
class StructureAutomorphisms:
    """The membership automorphisms of a top level, as maps on its codes.

    ``group`` is the automorphism group of the picture searched: a fresh
    root 0 over the top level, with node i + 1 for ``codes[i]``, the i-th
    smallest code.  ``count`` comes from its stabilizer chain;
    ``elements`` lists every map, in order of the codes of their
    images, and is built only when first read.
    """

    group: AutomorphismGroup
    codes: list[int]

    @property
    def count(self) -> int:
        return self.group.order

    @cached_property
    def elements(self) -> list[dict[int, int]]:
        codes = self.codes
        return [
            {c: codes[p[i] - 1] for i, c in enumerate(codes, 1)} for p in self.group.elements
        ]


def check_automorphism_cap(top_size: int, cap: int = DEFAULT_ISO_CAP) -> None:
    """``all_automorphisms``' cap, checked on the top level's size alone."""
    if top_size > cap:
        raise SizeLimitExceeded(f"automorphism search capped at {cap} elements")


def all_automorphisms(
    u: LevelledUniverse, cap: int = DEFAULT_ISO_CAP
) -> StructureAutomorphisms:
    """The membership automorphisms of the top level.

    This searches the bare digraph of the membership relation and does not
    assume anything about atom maps, so it can serve as the independent
    check that every automorphism arises from an atom permutation.  The
    picture searched has a fresh root 0 over the top level and node i + 1
    for its i-th smallest code; the cap counts top-level elements only.
    """
    check_automorphism_cap(len(u.top), cap)
    codes = sorted(u.top)
    node = {c: i + 1 for i, c in enumerate(codes)}
    children = [frozenset(node.values())]
    children += [frozenset(node[m] for m in u.members[c]) for c in codes]
    return StructureAutomorphisms(automorphisms(Apg(tuple(children), 0), cap=cap + 1), codes)
