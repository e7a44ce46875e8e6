"""Self-tests for the benchmark's checkers and its output format.

    python3 perfbench/selftest.py

Each checker must pass a genuine result and count a deliberately wrong
one (a flipped verdict, wrong dimensions, exit 0 on malformed input) as
failed.  The last test runs the benchmark briefly and compares the metric
names it prints with those declared in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from groupstates import characters, groups, vn  # noqa: E402


class ClassifyCheckers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.Classify()
        ops = cls.wl.ops({}, seed=5, passes=1)
        cls.group_op = next(op for op in ops if op.label == "group:S4")
        cls.group_result = cls.group_op.run()
        cls.pair_op = next(op for op in ops if op.label == "pair:Q8~D4")
        next(op for op in ops if op.label == "group:Q8").run()
        cls.pair_result = cls.pair_op.run()

    def test_genuine_results_pass(self):
        self.assertEqual(self.group_op.check(self.group_result), [])
        self.assertEqual(self.pair_op.check(self.pair_result), [])

    def test_wrong_dims_fail(self):
        wrong = dict(self.group_result, table=replace(self.group_result["table"], dims=(1, 1, 1, 2, 3)))
        self.assertIn("characters", self.group_op.check(wrong))
        self.assertIn("characters", checks.check_group({"dims": (1, 1, 2, 2, 2)}, self.group_result))

    def test_face_route_disagreeing_fails(self):
        self.assertEqual(checks.check_group({"dims": (1, 1, 2, 3, 3)},
                                            dict(self.group_result, chains=[1, 1, 2, 2, 3])), ["faces"])
        faces = self.group_result["faces"]
        self.assertEqual(checks.check_group({"dims": (1, 1, 2, 3, 3)},
                                            dict(self.group_result, faces=faces[:-1])), ["faces"])

    def test_flipped_iso_verdict_fails(self):
        v = self.pair_result["verdict"]
        flipped = dict(self.pair_result, verdict=replace(v, isomorphic=not v.isomorphic))
        self.assertEqual(self.pair_op.check(flipped), ["vn"])

    def test_broken_homeomorphism_fails(self):
        h = self.pair_result["homeo"]
        bent = vn.AffineHomeomorphism(h.source, h.target, h.matching,
                                      h.forward_matrix * 1.001, h.backward_matrix)
        self.assertEqual(self.pair_op.check(dict(self.pair_result, homeo=bent)), ["vn"])


class StateAndCertifyCheckers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        g = groups.build_named("symmetric:3")
        table = characters.character_table(g)
        minimal = characters.minimal_central_projections(g, table)
        ctx = {"S3": {"group": g, "table": table, "minimal": minimal,
                      "decomp": vn.block_decompose(g, table)}}
        with mock.patch.object(workloads, "QUERY_GROUPS", {"S3": 1}):
            cls.ops = workloads.StateQueries().ops(ctx, seed=3, passes=1)

    def test_queries_pass_and_flipped_verdict_fails(self):
        for op in self.ops:
            r = op.run()
            self.assertEqual(op.check(r), [], op.label)
            flipped = dict(r, pd=replace(r["pd"], is_psd=not r["pd"].is_psd))
            self.assertIn("posdef", op.check(flipped), op.label)
            self.assertIn("posdef", op.check(dict(r, a_norm=r["a_norm"] + 0.1)), op.label)

    def test_wrong_membership_fails(self):
        op = next(o for o in self.ops if o.label.endswith(":pure"))
        r = op.run()
        self.assertEqual(op.check(dict(r, members=[not m for m in r["members"]])), ["faces"])

    def test_certify_checkers(self):
        self.assertEqual(checks.check_extreme({"extreme": True, "gns_dim": 2},
                                              {"extreme": False, "gns_dim": 2}), ["posdef"])
        self.assertEqual(checks.check_extreme({"extreme": False, "gns_dim": 4},
                                              {"extreme": False, "gns_dim": 2}), ["posdef"])
        self.assertEqual(checks.check_cp({"cp": True}, {"verdict": False, "symbol_undecided": False}),
                         ["channels"])
        self.assertEqual(checks.check_jordan({"sigma": (0, 1, 2), "transpose": (False, False, True)},
                                             {"sigma": (0, 1, 2), "transpose": (False, False, False)}),
                         ["vn"])

    def test_certify_ops_pass_and_repeat_for_a_seed(self):
        wl = workloads.Certify()
        ctx = wl.setup()
        first = wl.ops(ctx, seed=9, passes=1)
        second = wl.ops(ctx, seed=9, passes=1)
        self.assertEqual([op.label for op in first], [op.label for op in second])
        for op in first:
            if not op.label.startswith("cp:S4"):
                self.assertEqual(op.check(op.run()), [], op.label)


class CliChecker(unittest.TestCase):
    def test_exit_zero_on_malformed_input_fails(self):
        spec = {"exit": 2, "fields": {"error": "InputFormatError"}}
        self.assertEqual(checks.check_cli(spec, {"exit": 0, "stdout": '{"valid": true}'}), ["cli"])
        self.assertEqual(checks.check_cli(spec, {"exit": 2, "stdout": '{"error": "InputFormatError"}\n'}),
                         [])

    def test_wrong_field_fails(self):
        spec = {"exit": 0, "fields": {"isomorphic": True}}
        self.assertEqual(checks.check_cli(spec, {"exit": 0, "stdout": '{"isomorphic": false}'}), ["cli"])
        self.assertEqual(checks.check_cli(spec, {"exit": 0, "stdout": "isomorphic: true"}), ["cli"])


class FixedReference:
    """A reference task whose probes take the given times."""

    parts = ("fixed",)
    nominal_s = 1.0
    every_s = 1.0
    window_s = 1.0

    def __init__(self, times):
        self.times = iter(times)

    def probe(self):
        return next(self.times)


class Runner(unittest.TestCase):
    def test_median_pass_per_slot(self):
        # two slots, three passes: slot 0 median 1.2, slot 1 median 2.5
        self.assertAlmostEqual(run.median_pass_s([1.5, 2.0, 1.0, 3.0, 1.2, 2.5], passes=3), 3.7)
        self.assertEqual(run.median_pass_s([1.5, 2.0], passes=1), 3.5)

    def test_latency_scaled_by_the_probes_around_it(self):
        # the clock ticks 1 s per reading, so every operation takes 1 s and a
        # probe follows each; the machine runs at half the reference speed
        # from the fifth probe on
        ref = FixedReference([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        ops = [workloads.Op(f"op{i}", lambda: None, lambda r: []) for i in range(8)]
        with mock.patch.object(run.time, "perf_counter", side_effect=itertools.count()):
            phase = run.run_ops(ops, ref)
        self.assertEqual(len(phase["probes"]), 10)
        self.assertEqual(phase["scale"][0], 1.0)
        self.assertEqual(phase["scale"][-1], 0.5)
        self.assertEqual(phase["speed"], 0.5)

    def test_no_reference_parts_leaves_latency_unscaled(self):
        ops = [workloads.Op(f"op{i}", lambda: None, lambda r: []) for i in range(3)]
        phase = run.run_ops(ops, reference.Reference(()))
        self.assertEqual(phase["scale"], [1.0, 1.0, 1.0])
        self.assertEqual(phase["probes"], [])

    def test_raising_op_counts_against_its_module(self):
        bad_table = np.array([[0, 0], [1, 1]])
        op = workloads.Op("bad", lambda: groups.validate_group(bad_table), lambda r: [])
        phase = run.run_ops([op], FixedReference([1.0, 1.0]))
        self.assertEqual(len(phase["failures"]), 1)
        self.assertEqual(phase["by_module"]["groups"], 1)

    def test_printed_metrics_match_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "2",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=ROOT, timeout=170)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
