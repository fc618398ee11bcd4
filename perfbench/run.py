#!/usr/bin/env python3
"""hypersets benchmark: one workload, timed end to end, or traced by layer.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, so a tree without it fails before printing a result.  The
run sets up the workload's inputs, runs one warm-up round, then whole
rounds of the same operations until ``--seconds`` have passed, setting up
again between rounds (``setup_s`` is the median of the set-ups), and
finally checks the warm-up round's outputs against the oracles; every
later round must repeat them exactly.  Each call
is timed on its own; an operation's time is the sum of its calls' best
times over the timed rounds.  ``cli_s`` and ``library_s`` sum those times
over the CLI commands and the library calls; they and ``setup_s`` are
scaled by the reference loop (see ``REFERENCE_S``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every public function of the package's
layers is wrapped and the metrics are the per-layer ones.  The result, and
in a traced run the spans of the first timed round, are also written under
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

# Set-ups per run.  The first one builds the inputs the run times; the
# others are spread over the timed rounds, so that their median does not
# hang on the machine's state at one moment.
SETUPS = 11
# The reference loop: the benchmark's own code, no package code, building a
# fixed random graph of 500 nodes and 1,500 edges and running the oracles'
# signature refinement on it, about 4 ms.  It runs once after every
# operation of every round, and its best time over the run measures how
# fast the machine ran the interpreter during that run.
# cli_s, library_s and setup_s are scaled by REFERENCE_S / that best time:
# they are seconds on a machine where the loop's best time is REFERENCE_S.
REFERENCE_S = 0.004
LAYER_MODULES = ("cli", "hsl", "canon", "equivalence", "apg", "boffa", "wflab", "grouplab")


def import_package() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hypersets", "__init__.py")):
        raise SystemExit(f"no hypersets package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "hypersets" or n.startswith("hypersets.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"hypersets.{name}") for name in LAYER_MODULES}
    pkg = sys.modules["hypersets"]
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"hypersets imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**mods)


def reference_loop():
    oracles.signature_classes(inputs.random_dense_graph(7, 500, 1500)[0])


def run_round(ops, reference=None) -> tuple[dict, dict, int]:
    """Every call of every operation once: the outputs and times of each
    operation's calls, and the number of calls that raised.  With a
    ``reference`` loop, it runs once after each operation, and its times
    are under ``times["reference"]``."""
    outputs, times, failed = {}, {}, 0
    clock = time.perf_counter
    if reference:
        times["reference"] = []
    for op in ops:
        outs, ts = [], []
        for call in op.calls:
            start = clock()
            try:
                out = call()
            except Exception as exc:  # a failing call is counted, not fatal
                out = ("raised", type(exc).__name__)
                failed += 1
            ts.append(clock() - start)
            outs.append(out)
        outputs[op.name] = outs
        times[op.name] = ts
        if reference:
            start = clock()
            reference()
            times["reference"].append(clock() - start)
    return outputs, times, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workdir: str):
    """A fresh import of the package and the workload's inputs, timed."""
    start = time.perf_counter()
    mods = import_package()
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(mods, args.seed, workdir)
    return mods, wl, time.perf_counter() - start


def _run(args, workdir: str) -> int:
    mods, wl, first = set_up(args, workdir)
    setup_times = [first]

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install(mods)
    ops = wl.ops(mods)
    per_round = sum(op.count for op in ops)

    expected, _, failed = run_round(ops, reference_loop)
    attempted = per_round
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of collections
    if tracer:
        tracer.reset()

    rounds: list[dict] = []
    repeated = True
    first_spans = None
    start = time.perf_counter()
    deadline = start + args.seconds
    spare = os.path.join(workdir, "spare")
    os.makedirs(spare)
    while True:
        # A traced run reports no setup_s, and a fresh import would bypass
        # its wrappers, so it sets up only once.
        due = start + len(setup_times) * args.seconds / SETUPS
        if not tracer and len(setup_times) < SETUPS and time.perf_counter() >= due:
            setup_times.append(set_up(args, spare)[2])
        gc.collect()
        outputs, times, fails = run_round(ops, reference_loop)
        rounds.append(times)
        attempted += per_round
        failed += fails
        repeated = repeated and outputs == expected
        if tracer:
            spans = tracer.fold()
            first_spans = first_spans or spans
        if time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    problems = wl.check(mods, expected)
    if not repeated:
        problems.append("a timed round's outputs differ from the warm-up round's")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    # An operation's time is the sum over its calls of each call's best
    # time over the timed rounds; see README.md for why not the median.
    best = {op.name: sum(map(min, zip(*(t[op.name] for t in rounds)))) for op in ops}
    for op in ops:
        med = statistics.median(sum(t[op.name]) for t in rounds)
        print(f"op {op.name} {op.surface} best_s {best[op.name]:.6f} median_s {med:.6f} calls {op.count}")
    reference_best = min(min(t["reference"]) for t in rounds)
    scale = REFERENCE_S / reference_best
    print(f"rounds {len(rounds)} reference_best_s {reference_best:.6f} scale {scale:.4f}")

    def surface_total(surface):
        return sum(best[op.name] for op in ops if op.surface == surface) * scale

    if tracer:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * scale, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "cli_s": {"value": surface_total("cli"), "unit": "s"},
            "library_s": {"value": surface_total("library"), "unit": "s"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": problems, "best_s": best,
                   "reference_best_s": reference_best,
                   "round_s": [{k: sum(v) for k, v in t.items()} for t in rounds]}, fh)
    if tracer:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": first_spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
