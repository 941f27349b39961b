#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

The worker's own unit tests (input generation: same seed same inputs, other
seed other mix, churn edge count within one of the start graph) run with
`cargo test --release --offline --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

# Per-layer metrics that are counts of work: pure functions of the seed on
# every workload but netd (whose counters are physical).
COUNT_UNITS = ("count", "ratio", "bytes")
NOT_DETERMINISTIC = {"failed_ratio", "unattributed_share", "netd.wire.frames_sent",
                     "netd.conn.dials", "netd.queue.shed_backpressure", "netd.heartbeat.sent"}


def run(workload, seed, seconds, trace, cwd=ROOT):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items()
            if v["unit"] in COUNT_UNITS and k not in NOT_DETERMINISTIC}


class Benchmark(unittest.TestCase):
    def test_same_seed_gives_identical_per_layer_counts(self):
        for workload, seconds in (("stream", 6), ("adversarial", 8), ("churn", 4)):
            a = run(workload, 5, seconds, 1)
            b = run(workload, 5, seconds, 1)
            self.assertEqual(a.returncode, 0, a.stderr)
            self.assertEqual(b.returncode, 0, b.stderr)
            self.assertEqual(counts(result(a)), counts(result(b)), workload)

    def test_other_seed_changes_the_counts(self):
        a = result(run("churn", 5, 4, 1))
        b = result(run("churn", 6, 4, 1))
        self.assertNotEqual(counts(a), counts(b))

    def test_every_declared_metric_is_reported(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w in spec["workloads"]:
            for trace, names in ((0, e2e), (1, layers)):
                res = result(run(w["name"], 1, 2, trace))
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, names, (w["name"], trace))

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run("stream", 1, 1, 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
