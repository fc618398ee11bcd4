"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps every public function each layer module defines
(and the Boffa store's entry points, which are methods of ``Universe``),
and rebinds the name in every ``hypersets`` module that holds it, so calls
between layers go through the wrappers too.  A span is (name, start, end,
parent, exception); spans stay in memory.  ``fold`` turns the spans of a
round into totals and forgets them, and ``metrics`` derives the per-layer
figures from the totals: a layer's self time is its span time minus the
time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "hsl", "canon", "equivalence", "apg", "boffa", "wflab", "grouplab")
UNIVERSE_METHODS = ("realize", "picture_of", "add_set", "add_quine_atom", "extend_iso_step")
PARTITIONS = ("equivalence.max_bisimulation", "equivalence.counting_partition",
              "equivalence.finsler_partition")

# Per-layer metric -> unit.  Times are self times; every figure is per round
# except the rates and ratios, which are taken over all rounds.
PER_LAYER = {
    "cli.main_self_s": "s",
    "hsl.parse_s": "s",
    "hsl.parse_bytes_per_s": "B/s",
    "hsl.flatten_s": "s",
    "hsl.flatten_nodes_emitted": "nodes",
    "hsl.flatten_into_s": "s",
    "hsl.unparse_s": "s",
    "equivalence.max_bisimulation_s": "s",
    "equivalence.max_bisimulation_calls": "count",
    "equivalence.max_bisimulation_edges_per_s": "edges/s",
    "equivalence.counting_partition_s": "s",
    "equivalence.counting_partition_calls": "count",
    "equivalence.counting_partition_edges_per_s": "edges/s",
    "equivalence.finsler_partition_s": "s",
    "equivalence.finsler_partition_calls": "count",
    "apg.quotient_s": "s",
    "apg.quotient_calls": "count",
    "apg.trim_to_accessible_s": "s",
    "apg.trim_to_accessible_calls": "count",
    "apg.pointed_isomorphic_s": "s",
    "apg.pointed_isomorphic_calls": "count",
    "apg.pointed_isomorphic_found_ratio": "ratio",
    "canon.canonicalize_self_s": "s",
    "canon.canonicalize_calls": "count",
    "canon.canonicalize_rounds": "count",
    "canon.canonicalize_repeat_ratio": "ratio",
    "canon.equal_self_s": "s",
    "canon.equal_calls": "count",
    "canon.cap_failures": "count",
    "canon.automorphisms_s": "s",
    "canon.automorphism_elements": "count",
    "boffa.realize_s": "s",
    "boffa.picture_of_s": "s",
    "boffa.universe_sets": "count",
    "wflab.build_universe_s": "s",
    "wflab.all_automorphisms_s": "s",
    "grouplab.build_A_G_s": "s",
    "grouplab.aut_group_of_s": "s",
    "grouplab.groups_isomorphic_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.rounds = 0
        self._restore: list = []
        self._seen_root = None
        self._seen: set = set()
        self._keep: list = []

    # -- installing -------------------------------------------------------

    def install(self, mods) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "hypersets" or name.startswith("hypersets.")]
        for layer in LAYERS:
            module = getattr(mods, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, key, fn))
                            setattr(m, key, wrapper)
        universe = mods.boffa.Universe
        for attr in UNIVERSE_METHODS:
            fn = vars(universe)[attr]
            self._restore.append((universe, attr, fn))
            setattr(universe, attr, self._wrap(f"boffa.{attr}", fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = _HOOKS.get(name)
        sized = name == "boffa.realize"  # its hook counts the sets it adds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            before = len(args[0]) if sized else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[me] = (ix, start, end, parent, type(exc).__name__)
                if hook:
                    hook(self, stack[0] if stack else me, args, None, exc, before)
                raise
            end = clock()
            stack.pop()
            spans[me] = (ix, start, end, parent, None)
            if hook:
                hook(self, stack[0] if stack else me, args, result, None, before)
            return result

        return wrapper

    # -- folding ----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up round)."""
        self.spans.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.rounds = 0

    def fold(self) -> list:
        """Add the spans of one finished round to the totals; returns them
        and starts the next round with an empty span list."""
        spans = list(self.spans)
        self.spans.clear()
        child = [0.0] * len(spans)
        for ix, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        names = self.names
        for i, (ix, start, end, parent, _) in enumerate(spans):
            name = names[ix]
            self.self_time[name] += end - start - child[i]
            self.calls[name] += 1
            if name in PARTITIONS and parent >= 0 and names[spans[parent][0]] == "canon.canonicalize":
                self.counts["canon.canonicalize_partitions"] += 1
        self.rounds += 1
        self._seen_root = None
        self._seen.clear()
        self._keep.clear()
        return spans

    def metrics(self) -> dict[str, dict]:
        r = max(self.rounds, 1)
        st, calls, counts = self.self_time, self.calls, self.counts
        layer_self = defaultdict(float)
        for name, t in st.items():
            layer_self[name.split(".")[0]] += t

        def rate(count_key, name):
            return counts[count_key] / st[name] if st[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "cli.main_self_s": layer_self["cli"] / r,
            "hsl.parse_bytes_per_s": rate("hsl.parse_bytes", "hsl.parse"),
            "hsl.flatten_nodes_emitted": counts["hsl.flatten_nodes"] / r,
            "equivalence.max_bisimulation_edges_per_s": rate(
                "equivalence.max_bisimulation_edges", "equivalence.max_bisimulation"),
            "equivalence.counting_partition_edges_per_s": rate(
                "equivalence.counting_partition_edges", "equivalence.counting_partition"),
            "apg.pointed_isomorphic_found_ratio": ratio(
                counts["apg.pointed_isomorphic_found"], calls["apg.pointed_isomorphic"]),
            "canon.canonicalize_self_s": st["canon.canonicalize"] / r,
            "canon.canonicalize_rounds": ratio(
                counts["canon.canonicalize_partitions"], calls["canon.canonicalize"]),
            "canon.canonicalize_repeat_ratio": ratio(
                counts["canon.canonicalize_repeats"], calls["canon.canonicalize"]),
            "canon.equal_self_s": st["canon.equal"] / r,
            "canon.cap_failures": counts["canon.cap_failures"] / r,
            "canon.automorphism_elements": counts["canon.automorphism_elements"] / r,
            "boffa.universe_sets": counts["boffa.universe_sets"] / r,
        }
        for metric in PER_LAYER:
            if metric in values:
                continue
            if metric.endswith("_calls"):
                values[metric] = calls[metric[: -len("_calls")]] / r
            else:
                values[metric] = st[metric[: -len("_s")]] / r
        return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}


# -- counts taken from arguments and results ----------------------------------

def _parse(t, root, args, result, exc, before):
    t.counts["hsl.parse_bytes"] += len(args[0].encode("utf-8"))


def _flatten(t, root, args, result, exc, before):
    if result is not None:
        t.counts["hsl.flatten_nodes"] += sum(g.node_count for g in result.values())


def _edges(key):
    def hook(t, root, args, result, exc, before):
        t.counts[key] += args[0].edge_count
    return hook


def _pointed_isomorphic(t, root, args, result, exc, before):
    t.counts["apg.pointed_isomorphic_found"] += result is not None


def _canonicalize(t, root, args, result, exc, before):
    # A repeat is a call on a graph the same top-level operation already
    # canonicalized under the same semantics.  The graphs are kept alive
    # until the operation ends, so their ids are not reused meanwhile.
    if root != t._seen_root:
        t._seen_root = root
        t._seen.clear()
        t._keep.clear()
    key = (id(args[0]), args[1])
    if key in t._seen:
        t.counts["canon.canonicalize_repeats"] += 1
    else:
        t._seen.add(key)
        t._keep.append(args[0])


def _equal(t, root, args, result, exc, before):
    if exc is not None and type(exc).__name__ == "SizeLimitExceeded":
        t.counts["canon.cap_failures"] += 1


def _automorphisms(t, root, args, result, exc, before):
    if result is not None:
        t.counts["canon.automorphism_elements"] += result.order


def _realize(t, root, args, result, exc, before):
    t.counts["boffa.universe_sets"] += len(args[0]) - before


_HOOKS = {
    "hsl.parse": _parse,
    "hsl.flatten": _flatten,
    "equivalence.max_bisimulation": _edges("equivalence.max_bisimulation_edges"),
    "equivalence.counting_partition": _edges("equivalence.counting_partition_edges"),
    "apg.pointed_isomorphic": _pointed_isomorphic,
    "canon.canonicalize": _canonicalize,
    "canon.equal": _equal,
    "canon.automorphisms": _automorphisms,
    "boffa.realize": _realize,
}
