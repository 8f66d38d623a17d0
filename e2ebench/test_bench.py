#!/usr/bin/env python3
"""The benchmark's own test: smoke runs of every workload in both modes.

Run from the repository root (builds the benchmark on first use):

  python3 e2ebench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted, finite and has
its unit; that the traced run's spans nest under their parents; and that
a deliberately wrong reference fails the correctness check.
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark wrapper, for its paths)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, *extra):
    """Runs one smoke run; returns (exit code, context, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"no result from {cmd}:\n{proc.stderr}")
    context = json.loads(lines[-2].removeprefix("# context "))
    return proc.returncode, context, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            self.assertEqual(metric["unit"], want[name], name)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = smoke(workload, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["end_to_end"])

    def test_traced_metrics_and_span_nesting(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, context, result = smoke(workload, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["per_layer"])
                # The solver spans are cut from one timeline, so coverage
                # is near 1 by construction; this only guards against
                # untraced work slipping in between the spans of a fit.
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage"]["value"], 0.95)
                trace = json.loads(
                    (ROOT / context["trace_file"]).read_text())
                self.check_nesting(trace["traceEvents"])

    def check_nesting(self, events):
        spans = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
        self.assertTrue(spans)
        names = {e["name"] for e in spans.values()}
        for name in ("load", "fit", "solver.init", "solver.iter",
                     "ensemble.subspace", "ensemble.knn",
                     "ensemble.laplacian"):
            self.assertIn(name, names)
        # The recorder stores ns; the file keeps three decimals of us.
        slack = 1e-3
        for span in spans.values():
            parent_id = span["args"]["parent"]
            if parent_id < 0:
                continue
            parent = spans[parent_id]
            self.assertEqual(span["args"]["fit_id"], parent["args"]["fit_id"])
            self.assertGreaterEqual(span["ts"] + slack, parent["ts"],
                                    span["name"])
            self.assertLessEqual(span["ts"] + span["dur"],
                                 parent["ts"] + parent["dur"] + slack,
                                 span["name"])

    def test_wrong_reference_fails(self):
        code, context, _ = smoke("d4-fit", 0)
        self.assertEqual(code, 0)
        scores = context["scores"]
        wrong = {context["isa"]: {"smoke:d4-fit": {"1": {
            "nmi": scores["nmi"] + 0.05, "fscore": scores["fscore"]}}}}
        path = run.build_root() / "e2ebench-run" / "wrong_reference.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(wrong))
        code, _, result = smoke("d4-fit", 0, "--references", str(path))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_fraction"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
