"""A finite universe with Boffa semantics.

Equality is node identity.  Extensionality is enforced structurally: no
two distinct set-ids may carry identical member sets.  Self-membership
breaks syntactic identity, so distinct Quine atoms a = {a}, b = {b} (member
sets {a} vs {b}) coexist happily, and fresh atoms can always be minted.
Isomorphic-but-distinct sets are the whole point: the store deliberately
violates isomorphism extensionality.

``realize`` is the finite analogue of superuniversality: an extensional
graph end-extending a transitive part of the universe is copied in, the
old part staying fixed.  The freshness policy is deterministic where the
axiom would invoke global choice: well-founded content collapses onto
existing sets (forced by extensionality), ill-founded nodes always mint
fresh ids.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional

from .apg import Apg, _bfs, _postorder, trim_to_accessible
from .errors import NotEndExtension, NotExtensional


class Universe:
    def __init__(self):
        self.sets: dict[int, frozenset[int]] = {}
        self.labels: dict[int, str] = {}
        self.next_id = 0
        # Reverse index: member set -> id, over every set.
        self._by_members: dict[frozenset[int], int] = {}

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, i: int) -> bool:
        return i in self.sets

    def members(self, i: int) -> frozenset[int]:
        return self.sets[i]

    def check_extensionality(self) -> None:
        seen: dict[frozenset[int], int] = {}
        for i, m in self.sets.items():
            if m in seen:
                raise AssertionError(
                    f"extensionality violated: {seen[m]} and {i} share members {set(m)}"
                )
            seen[m] = i
            for c in m:
                if c not in self.sets:
                    raise AssertionError(f"dangling member {c} of {i}")

    # -- mutators -----------------------------------------------------------

    def add_quine_atom(self, label: Optional[str] = None) -> int:
        """Mint a fresh set x with x = {x}, distinct from all existing sets."""
        i = self.next_id
        self.next_id += 1
        self.sets[i] = frozenset((i,))
        self._by_members[self.sets[i]] = i
        if label is not None:
            self.labels[i] = label
        return i

    def add_set(self, members: Iterable[int]) -> int:
        """The set with the given members: reused if it already exists
        (extensionality), freshly minted otherwise.

        The index covers self-referential sets too: for a Quine atom a the
        request {a} returns a itself, since {a} = a.
        """
        ms = frozenset(members)
        for c in ms:
            if c not in self.sets:
                raise ValueError(f"unknown member id {c}")
        existing = self._by_members.get(ms)
        if existing is not None:
            return existing
        i = self.next_id
        self.next_id += 1
        self.sets[i] = ms
        self._by_members[ms] = i
        return i

    def realize(
        self,
        ext: Mapping[Hashable, Iterable[Hashable]],
        old: Mapping[Hashable, int],
    ) -> dict:
        """Copy an extensional end-extension of a transitive part into the
        universe; returns node -> set-id, identity on the old part.

        ``ext`` maps graph nodes to their member nodes; ``old`` maps the
        nodes of the already-realized transitive part to their ids.  New
        well-founded content collapses onto existing sets where member sets
        coincide; ill-founded nodes mint fresh ids.
        """
        ext_children = {k: frozenset(ext[k]) for k in ext}
        for k, kids in ext_children.items():
            for c in kids:
                if c not in ext_children:
                    raise ValueError(f"edge {k!r}->{c!r} points outside the graph")

        seen_sets: dict[frozenset, Hashable] = {}
        for k, kids in ext_children.items():
            if kids in seen_sets:
                raise NotExtensional(
                    f"nodes {seen_sets[kids]!r} and {k!r} have identical members"
                )
            seen_sets[kids] = k

        old_ids = set(old.values())
        if len(old_ids) != len(old):
            raise ValueError("old part maps two nodes to one id")
        for k, i in old.items():
            if k not in ext_children:
                raise ValueError(f"old node {k!r} is not a node of the graph")
            if i not in self.sets:
                raise ValueError(f"old id {i} is not in the universe")
            if not self.sets[i] <= old_ids:
                raise ValueError(f"old part is not transitive at id {i}")
        for k, i in old.items():
            kids = ext_children[k]
            if any(c not in old for c in kids):
                raise NotEndExtension(f"new member claimed for old set {k!r}")
            if frozenset(old[c] for c in kids) != self.sets[i]:
                raise NotEndExtension(f"membership of old set {k!r} altered")

        new_keys = [k for k in ext_children if k not in old]
        ill = _reaches_cycle(new_keys, ext_children, set(old))
        phi: dict = dict(old)

        # Every check on the input has run; from here on nothing can raise
        # but the invariant below, so the store is written in place.
        for k in _topo_order(new_keys, ext_children, ill):
            phi[k] = self.add_set(phi[c] for c in ext_children[k])
        for k in sorted(ill, key=_stable_key):
            phi[k] = self.next_id
            self.next_id += 1
        for k in ill:
            ms = frozenset(phi[c] for c in ext_children[k])
            if ms in self._by_members:
                raise AssertionError("ill-founded mint duplicated a member set")
            self.sets[phi[k]] = ms
            self._by_members[ms] = phi[k]
        return phi

    def extend_iso_step(self, f: Mapping[int, int], x: int) -> dict[int, int]:
        """One forth step of the back-and-forth system: extend the partial
        membership isomorphism f so that x enters its domain.

        The membership structure of TC({x}) over dom(f) is copied to the
        range side via ``realize``; the universe may grow.
        """
        _check_partial_iso(self, f)
        if x not in self.sets:
            raise ValueError(f"unknown id {x}")
        if x in f:
            return dict(f)
        domain = set(f) | self._transitive_closure(x)
        ext = {i: self.sets[i] for i in domain}
        phi = self.realize(ext, dict(f))
        return {i: phi[i] for i in domain}

    # -- views ---------------------------------------------------------------

    def _transitive_closure(self, x: int) -> set[int]:
        return set(_bfs(x, self.sets))

    def picture_of(self, x: int) -> Apg:
        """The canonical picture of x: its transitive closure rooted at x."""
        return self._picture(x)[0]

    def _picture(self, x: int) -> tuple[Apg, dict[int, int]]:
        """``picture_of(x)`` and the map from set ids to its nodes."""
        tc = self._transitive_closure(x)
        raw = {i: sorted(self.sets[i]) for i in tc}
        labels = {i: self.labels[i] for i in tc if i in self.labels}
        return trim_to_accessible(raw, x, labels)

    def is_well_founded_id(self, x: int) -> bool:
        """True iff no membership cycle is reachable from x."""
        tc = self._transitive_closure(x)
        ill = _reaches_cycle(list(tc), self.sets, set())
        return x not in ill


def _stable_key(k) -> tuple:
    return (str(type(k).__name__), repr(k))


def _reaches_cycle(keys: list, children: Mapping, resolved: set) -> set:
    """Subset of keys lying on or reaching a cycle, treating ``resolved``
    nodes as leaves."""
    open_kids = {k: [c for c in children[k] if c not in resolved] for k in keys}
    post = _postorder(keys, open_kids)
    pos = {k: i for i, k in enumerate(post)}
    ill: set = set()
    for i, k in enumerate(post):
        # A child at or after k was still open when k closed, so k lies on
        # a cycle; a child before k has already been classified.
        if any(pos[c] >= i or c in ill for c in open_kids[k]):
            ill.add(k)
    return ill


def _topo_order(keys: list, children: Mapping, ill: set) -> list:
    """Children-first order of the well-founded keys (ill-founded and
    already-resolved nodes are treated as leaves).  Children are visited in
    ``_stable_key`` order, so the order does not depend on string hashing."""
    wf = [k for k in keys if k not in ill]
    rank = {k: _stable_key(k) for k in wf}
    return _postorder(wf, {
        k: sorted([c for c in children[k] if c in rank], key=rank.__getitem__) for k in wf
    })


def _check_partial_iso(u: Universe, f: Mapping[int, int]) -> None:
    dom = set(f)
    ran = set(f.values())
    if len(ran) != len(dom):
        raise ValueError("map is not injective")
    for i in dom:
        if i not in u.sets or f[i] not in u.sets:
            raise ValueError("map mentions unknown ids")
        if not u.sets[i] <= dom:
            raise ValueError(f"domain not transitive at {i}")
        if not u.sets[f[i]] <= ran:
            raise ValueError(f"range not transitive at {f[i]}")
        if frozenset(f[c] for c in u.sets[i]) != u.sets[f[i]]:
            raise ValueError(f"membership not preserved at {i}")
