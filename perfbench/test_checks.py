"""The benchmark's checks must reject corrupted outputs.

Each test runs a workload's round once on small inputs, confirms that the
check accepts the real outputs, then corrupts one output and confirms that
the check reports it.  Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


class _WorkloadCase:
    """Mixed into a TestCase per workload; ``sizes`` shrinks the inputs."""

    workload = ""
    sizes: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.saved = {k: getattr(workloads, k) for k in cls.sizes}
        for k, v in cls.sizes.items():
            setattr(workloads, k, v)
        os.makedirs(run.OUT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
        cls.mods = run.import_package()
        cls.wl = workloads.WORKLOADS[cls.workload]()
        cls.wl.setup(cls.mods, 7, cls.tmp)
        cls.outputs, _, _ = run.run_round(cls.wl.ops(cls.mods))

    @classmethod
    def tearDownClass(cls):
        for k, v in cls.saved.items():
            setattr(workloads, k, v)
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def problems_with(self, name, value):
        """Problems the check finds when the output of a single-call
        operation is replaced by ``value``."""
        return self.problems_with_all(name, [value])

    def problems_with_all(self, name, values):
        outputs = copy.deepcopy(self.outputs)
        outputs[name] = values
        return self.wl.check(self.mods, outputs)

    def one(self, name):
        return self.outputs[name][0]

    def test_real_outputs_pass(self):
        self.assertEqual(self.wl.check(self.mods, self.outputs), [])


class ManySmallChecks(_WorkloadCase, unittest.TestCase):
    workload = "many-small"
    sizes = {"SOLVE_PROGRAMS": {"afa": (2, 12), "safa": (2, 12), "fafa": (2, 8), "boffa": (2, 20)},
             "EQUAL_PAIRS": {"afa": 60, "safa": 60, "fafa": 40}}

    def flip(self, mode, word, pair=None):
        """The solve output of a mode with one verdict line flipped: the
        line for ``pair``, or else the first line that says ``word``."""
        outs = list(self.outputs[f"solve_{mode}"])
        code, text = outs[0]
        other = "distinct" if word == "equal" else "equal"
        target = f"{word} {pair[0]} {pair[1]}" if pair else None
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line == target or (target is None and line.startswith(word + " ")))
        lines[i] = other + lines[i][len(word):]
        outs[0] = (code, "\n".join(lines))
        return outs

    def test_flipped_equal_line(self):
        for mode in ("afa", "safa"):
            with self.subTest(mode=mode):
                self.assertTrue(self.problems_with_all(f"solve_{mode}", self.flip(mode, "equal")))
        # FAFA verdicts are bound by the implications and the planted copies
        copy = self.wl.programs[("fafa", 0)].copies[0]
        self.assertTrue(self.problems_with_all("solve_fafa", self.flip("fafa", "equal", copy)))

    def test_flipped_distinct_line(self):
        for mode in ("afa", "safa"):
            with self.subTest(mode=mode):
                self.assertTrue(self.problems_with_all(f"solve_{mode}", self.flip(mode, "distinct")))

    def test_flipped_equal_decision(self):
        for mode in ("afa", "safa", "fafa"):
            got = list(self.outputs[f"equal_{mode}"])
            i = next(i for i, (_, _, is_copy) in enumerate(self.wl.pair_graphs[mode]) if is_copy)
            got[i] = not got[i]
            with self.subTest(mode=mode):
                self.assertTrue(self.problems_with_all(f"equal_{mode}", got))

    def test_wrong_printed_set(self):
        outs = list(self.outputs["solve_afa"])
        code, text = outs[0]
        lines = text.splitlines()
        i = lines.index("set " + self.wl.programs[("afa", 0)].names[0]) + 1
        lines[i] = "x0 = {};"
        outs[0] = (code, "\n".join(lines))
        self.assertTrue(self.problems_with_all("solve_afa", outs))


class LargeGraphChecks(_WorkloadCase, unittest.TestCase):
    workload = "large-graph"
    sizes = {"GRAPH_NODES": 300, "RING_PERIOD": 6, "RING_LAPS": 3}

    def test_broken_decoration(self):
        for mode in ("afa", "safa"):
            children, decoration = self.one(f"canonicalize_{mode}")
            broken = list(decoration)
            broken[-1] = (broken[-1] + 1) % len(children)
            with self.subTest(mode=mode):
                self.assertTrue(self.problems_with(f"canonicalize_{mode}", (children, tuple(broken))))

    def test_flipped_eq_verdict(self):
        self.assertTrue(self.problems_with("eq_afa_unequal", (0, "equal\n")))
        self.assertTrue(self.problems_with("eq_safa_equal", (10, "unequal\n")))

    def test_wrong_equal_on_copy(self):
        self.assertTrue(self.problems_with("equal_afa_copy", False))


class SymmetryChecks(_WorkloadCase, unittest.TestCase):
    workload = "symmetry"
    sizes = {"AUT_ATOMS": 6, "LIB_AUT_ATOMS": 5}

    def test_wrong_automorphism_order(self):
        code, text = self.one("aut_cli")
        wrong = text.replace("automorphism order 720", "automorphism order 719")
        self.assertTrue(self.problems_with("aut_cli", (code, wrong)))
        self.assertEqual(self.one("aut_lib"), 120)
        self.assertTrue(self.problems_with("aut_lib", 119))

    def test_dropped_generator(self):
        code, text = self.one("aut_cli")
        lines = text.splitlines()
        self.assertTrue(self.problems_with("aut_cli", (code, "\n".join(lines[:2]) + "\n")))

    def test_wrong_group_count(self):
        code, text = self.one("group_cli")
        self.assertTrue(self.problems_with(
            "group_cli", (code, text.replace("automorphism count 6", "automorphism count 3"))))

    def test_wrong_level_size(self):
        code, text = self.one("wf_cli")
        self.assertTrue(self.problems_with("wf_cli", (code, text.replace("3 8 256", "3 8 255"))))
        sizes, count, verdict = self.one("wf_lib")
        self.assertTrue(self.problems_with("wf_lib", ([3, 8, 255], count, verdict)))


if __name__ == "__main__":
    unittest.main()
