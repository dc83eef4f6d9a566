"""Self-tests of the benchmark itself (not of perron).

    python3 perfbench/selftest.py

Takes about a minute: the tracing tests run each workload once untraced and
twice traced, with its sweeps and its first seeded queries.
"""

from __future__ import annotations

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import KERNELS  # noqa: E402

TRACE_SEEDED = 20  # seeded queries per workload in the tracing tests


def _serialized(cases):
    return json.dumps(cases, sort_keys=True).encode()


def _sweeps(cases):
    return [c for c in cases if c[1]["kind"] == "digest"]


def _trimmed(cases):
    seeded = [c for c in cases if c[1]["kind"] != "digest"]
    return _sweeps(cases) + seeded[:TRACE_SEEDED]


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.inputs(name, 7), workloads.inputs(name, 7)
            self.assertEqual(_serialized(a), _serialized(b), name)

    def test_other_seed_changes_the_queries_but_not_the_sweeps(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.inputs(name, 1), workloads.inputs(name, 2)
            self.assertNotEqual(_serialized(a), _serialized(b), name)
            self.assertEqual(_serialized(_sweeps(a)), _serialized(_sweeps(b)), name)
            self.assertTrue(_sweeps(a), name)

    def test_generated_charpoly_matches_a_hand_computed_one(self):
        # two-cycle on {0, 1} plus a loop at 0: T = [[1, 1], [1, 0]]
        self.assertEqual(workloads.charpoly([[1, 1], [1, 0]]), [1, -1, -1])


class CheckTests(unittest.TestCase):
    def test_bracket_certificate(self):
        golden = [1, -1, -1]  # x^2 - x - 1, root (1 + sqrt 5) / 2
        expect = {"kind": "bracket", "factor": golden}
        lo, hi = Fraction(161803398874, 10**11), Fraction(161803398875, 10**11)
        good = f"lo = {lo}\nhi = {hi}\n"
        self.assertTrue(workloads.check(expect, 0, good))
        self.assertFalse(workloads.check(expect, 1, good))
        wide = f"lo = {Fraction(3, 2)}\nhi = {Fraction(17, 10)}\n"
        self.assertFalse(workloads.check(expect, 0, wide))
        beside = f"lo = {hi}\nhi = {hi + Fraction(1, 10**11)}\n"
        self.assertFalse(workloads.check(expect, 0, beside))

    def test_count_and_digest_checks(self):
        self.assertTrue(workloads.check({"kind": "count"}, 0, "2\n"))
        self.assertFalse(workloads.check({"kind": "count"}, 0, "0\n"))
        self.assertFalse(workloads.check({"kind": "count"}, 0, "error\n"))
        expect = {"kind": "digest", "sha256": workloads.digest("abc\n")}
        self.assertTrue(workloads.check(expect, 0, "abc\n"))
        self.assertFalse(workloads.check(expect, 0, "abd\n"))

    def test_calibration_times_a_task_without_perron(self):
        seconds = run.measure_calibration(run.Deadline(60))
        self.assertGreater(seconds, 0)
        self.assertLess(seconds, 60)

    def test_no_sources_means_no_result(self):
        saved = run.SRC
        run.SRC = os.path.join(run.HERE, "no-such-dir")
        try:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = run.main(["--workload", workloads.WORKLOADS[0], "--seconds", "1"])
        finally:
            run.SRC = saved
        self.assertEqual(rc, 2)
        self.assertEqual(out.getvalue(), "")


class TracingTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.passes = {}
        deadline = run.Deadline(600)
        for name in workloads.WORKLOADS:
            cases = _trimmed(workloads.inputs(name, 1))
            argvs = [argv for argv, _ in cases]
            cls.passes[name] = (
                cases,
                run.run_pass(argvs, False, deadline),
                [run.run_pass(argvs, True, deadline) for _ in range(2)],
            )

    def test_outputs_are_correct_and_identical_with_tracing(self):
        for name, (cases, plain, traced) in self.passes.items():
            for (_, expect), rc, out in zip(cases, plain["rc"], plain["stdout"]):
                self.assertTrue(workloads.check(expect, rc, out), name)
            for p in traced:
                self.assertEqual(p["stdout"], plain["stdout"], name)
                self.assertEqual(p["trace"]["missing"], [], name)

    def test_call_counts_repeat_exactly(self):
        for name, (_, _, traced) in self.passes.items():
            self.assertEqual(traced[0]["trace"]["calls"], traced[1]["trace"]["calls"], name)
            self.assertEqual(traced[0]["trace"]["counters"], traced[1]["trace"]["counters"], name)

    def test_self_times_account_for_the_traced_wall_time(self):
        for name, (_, _, traced) in self.passes.items():
            for p in traced:
                t = p["trace"]
                wall = sum(p["seconds"])
                self.assertGreater(t["untraced_s"], -1e-9, name)
                self.assertTrue(all(s > -1e-9 for s in t["self_s"].values()), name)
                self.assertAlmostEqual(sum(t["self_s"].values()) + t["untraced_s"], wall, places=6)

    def test_every_kernel_is_called_on_some_workload(self):
        for kernel in KERNELS:
            total = sum(p[2][0]["trace"]["calls"][kernel] for p in self.passes.values())
            self.assertGreater(total, 0, kernel)


if __name__ == "__main__":
    unittest.main()
