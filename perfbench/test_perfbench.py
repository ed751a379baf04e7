#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark program like run.py does, then check that
  - a short-window run of every workload prints every metric named in
    BENCHMARK.json with its unit, untraced and traced;
  - the digest is identical for the same seed and differs for another;
  - every output check trips on a deliberately doctored result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)

SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_WINDOW_MS = "4"


class PerfbenchTest(unittest.TestCase):
    exe = None

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build(run.default_build_dir())
        if cls.exe is None:
            raise RuntimeError("perfbench build failed")

    def bench(self, workload, seed=1, trace=0, window=SMOKE_WINDOW_MS,
              doctor=None, expect_rc=0):
        cmd = [self.exe, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.05", "--trace", str(trace)]
        if window:
            cmd += ["--window-ms", window]
        if doctor:
            cmd += ["--doctor", doctor]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        self.assertEqual(p.returncode, expect_rc, p.stdout + p.stderr)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        return result, p.stdout

    def assert_metrics(self, result, listed):
        want = {m["name"]: m["unit"] for m in listed}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_smoke_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, out = self.bench(w)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, SPEC["end_to_end"])
                result, out = self.bench(w, trace=1)
                self.assertTrue(result["correct"], out)
                self.assert_metrics(result, SPEC["per_layer"])

    def digest(self, out):
        return re.search(r"^digest: ([0-9a-f]+)$", out, re.M).group(1)

    def sim_metrics(self, result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if k.startswith("sim_") or k in ("events_per_req",
                                                 "ok_frac")}

    def test_digest_same_seed_same_other_seed_differs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r1, o1 = self.bench(w, seed=3)
                r2, o2 = self.bench(w, seed=3)
                r3, o3 = self.bench(w, seed=4)
                self.assertEqual(self.digest(o1), self.digest(o2))
                self.assertEqual(self.sim_metrics(r1), self.sim_metrics(r2))
                self.assertNotEqual(self.digest(o1), self.digest(o3))

    def assert_trips(self, workload, check, window=SMOKE_WINDOW_MS,
                     trace=0):
        result, out = self.bench(workload, doctor=check, window=window,
                                 trace=trace, expect_rc=1)
        self.assertFalse(result["correct"], out)
        self.assertGreaterEqual(result["failed"], 1)
        self.assertRegex(out, rf"check {check} +FAIL")

    def test_every_check_trips_on_a_doctored_result(self):
        for check in ["drained", "accounted", "submitted_as_generated",
                      "latency_order", "bytes_conserved", "deterministic"]:
            for w in WORKLOADS:
                with self.subTest(check=check, workload=w):
                    self.assert_trips(w, check)
        # Only the fNoC architecture has packets to conserve.
        self.assert_trips("seqwrite_gc", "noc_packets_conserved")
        # The tail-sample check applies to the full window only.
        self.assert_trips("mixed_read_gc", "tail_samples", window=None)
        # Span coverage is checked on traced runs.
        self.assert_trips("mixed_read_gc", "spans_cover_run", trace=1)


if __name__ == "__main__":
    unittest.main()
