"""The shared depth-first walk against independent oracles: rank,
well-foundedness, Boffa's cycle test and its children-first order."""

import random
import time

import pytest

from hypersets.apg import Apg, is_well_founded, rank_map, trim_to_accessible
from hypersets.boffa import _reaches_cycle, _topo_order
from hypersets.errors import NotWellFounded

from oracles import naive_rank, reaches_cycle

fs = frozenset


def random_digraph(rng: random.Random, max_nodes: int) -> dict:
    """Children lists on <= max_nodes nodes: forward edges at a fixed rate,
    backward edges and self-loops at a rate drawn per graph (often none)."""
    n = rng.randint(1, max_nodes)
    back = rng.choice((0.0, 0.0, 0.05, 0.15, 0.3))
    return {
        u: [v for v in range(n) if rng.random() < (0.25 if v > u else back)]
        for u in range(n)
    }


def random_keyed_cases(seed: int, count: int):
    """(children, keys, resolved) over raw digraphs; every other graph is
    relabelled with tuple keys like the ones flattening makes, and half of
    the cases treat a random set of nodes as resolved leaves."""
    rng = random.Random(seed)
    for i in range(count):
        children = random_digraph(rng, 12)
        if i % 2:
            children = {("set", u): [("set", v) for v in kids] for u, kids in children.items()}
        resolved = set() if i % 4 < 2 else {u for u in children if rng.random() < 0.3}
        keys = [u for u in children if u not in resolved]
        rng.shuffle(keys)
        yield children, keys, resolved


def test_rank_and_well_foundedness_match_fixpoint():
    rng = random.Random(6001)
    verdicts = []
    for _ in range(2000):
        g, _ = trim_to_accessible(random_digraph(rng, 12), 0)
        want = naive_rank(g)
        verdicts.append(want is not None)
        assert is_well_founded(g) == (want is not None)
        if want is None:
            with pytest.raises(NotWellFounded):
                rank_map(g)
        else:
            assert rank_map(g) == want
    assert 500 < sum(verdicts) < 1500  # both kinds well represented


def test_reaches_cycle_matches_oracle():
    sizes = []
    for children, keys, resolved in random_keyed_cases(6002, 2000):
        got = _reaches_cycle(keys, children, resolved)
        assert got == reaches_cycle(children, resolved)
        sizes.append(len(got))
    assert sum(1 for s in sizes if s) > 500 and sum(1 for s in sizes if not s) > 500


def test_topo_order_lists_children_first():
    for children, keys, resolved in random_keyed_cases(6003, 2000):
        ill = _reaches_cycle(keys, children, resolved)
        order = _topo_order(keys, children, ill)
        wf = set(keys) - ill
        assert len(order) == len(wf) and set(order) == wf
        pos = {k: i for i, k in enumerate(order)}
        for k in order:
            for c in children[k]:
                if c in wf:
                    assert pos[c] < pos[k]


def test_long_chain():
    n = 100_000
    chain = tuple(fs((u + 1,)) if u + 1 < n else fs() for u in range(n))
    looped = chain[:-1] + (fs((0,)),)
    start = time.perf_counter()
    g = Apg(chain, 0)
    assert is_well_founded(g)
    assert rank_map(g)[0] == n - 1
    h = Apg(looped, 0)
    assert not is_well_founded(h)
    with pytest.raises(NotWellFounded):
        rank_map(h)
    assert time.perf_counter() - start < 2.0


class CountedReads(tuple):
    """A tuple of child sets that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        CountedReads.reads += 1
        return tuple.__getitem__(self, i)


def test_long_chain_reads_each_child_set_a_bounded_number_of_times():
    # test_long_chain's linearity, gated by a count instead of the clock:
    # the walks read the 100,000 child sets 8n times in all.
    n = 100_000
    chain = CountedReads(fs((u + 1,)) if u + 1 < n else fs() for u in range(n))
    looped = CountedReads((*chain[:-1], fs((0,))))
    CountedReads.reads = 0
    g = Apg(chain, 0)
    assert is_well_founded(g)
    assert rank_map(g)[0] == n - 1
    h = Apg(looped, 0)
    assert not is_well_founded(h)
    with pytest.raises(NotWellFounded):
        rank_map(h)
    assert CountedReads.reads <= 10 * n
