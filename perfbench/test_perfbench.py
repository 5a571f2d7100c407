#!/usr/bin/env python3
"""The benchmark's own tests, at a small scale.

    python3 perfbench/test_perfbench.py

1. Every workload's answer checks pass (correct, zero failed operations).
2. sim_tti_s, sim_tuning_s and bytes_per_triple repeat exactly across two
   runs of the same seed.
3. The traced run emits every per-layer metric, the layers each workload
   is meant to exercise read non-zero there, and the layer times it checks
   fit in the wall times they split.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ["analytic-watdiv", "ingest-yago"]
SCALE = "0.06"
SECONDS = "2"
DETERMINISTIC = ["sim_tti_s", "sim_tuning_s", "bytes_per_triple"]

# Layer metrics that must be non-zero on the workload that exercises them.
EXERCISED = {
    "analytic-watdiv": ["relstore.exec_ms", "relstore.sim_s", "core.dotil.after_batch_ms",
                        "core.dotil.migrations", "core.query_processor.route_relational",
                        "core.session.plan_hit_ratio", "sparql.parses"],
    "ingest-yago": ["core.online_store.apply_self_ms", "core.online_store.update_sim_s",
                    "core.online_store.retunes", "core.session.replans", "persist.fsync_us",
                    "persist.wal_bytes_per_op", "persist.snapshot_load_s",
                    "persist.replayed_batches", "core.dotil.setup_tune_s",
                    "persist.snapshot_save_s", "server.round_trip_us", "server.request_us",
                    "server.batch_size_mean", "server.plan_cache_hit_ratio"],
}

_binary = None
_cache = {}


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
    return _binary


def bench(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _cache:
        out_dir = run.build_dir() / "perfbench-test"
        proc = subprocess.run(
            [str(binary()), "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
             "--trace", str(trace), "--scale", SCALE, "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
        _cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[key]


def listed(kind):
    out = subprocess.run([str(binary()), "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return [line.split()[1] for line in out.splitlines() if line.startswith(kind + " ")]


class PerfbenchTest(unittest.TestCase):
    def test_answer_checks_pass(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, 7, 0)
                self.assertTrue(r["correct"], r)
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(sorted(r["metrics"]), sorted(listed("end_to_end")))
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_simulated_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = bench(w, 7, 0)["metrics"]
                out_dir = run.build_dir() / "perfbench-test"
                proc = subprocess.run(
                    [str(binary()), "--workload", w, "--seed", "7", "--seconds", SECONDS,
                     "--trace", "0", "--scale", SCALE, "--out-dir", str(out_dir)],
                    stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
                again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                for name in DETERMINISTIC:
                    self.assertEqual(first[name]["value"], again[name]["value"], name)

    def test_traced_run_emits_every_layer(self):
        names = listed("per_layer")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = bench(w, 7, 1)
                self.assertTrue(r["correct"], r)
                self.assertEqual(sorted(r["metrics"]), sorted(names))
                share = r["metrics"]["common.layer_share_of_wall"]["value"]
                self.assertGreater(share, 0)
                self.assertLessEqual(share, 1)
                for name in EXERCISED[w]:
                    self.assertGreater(r["metrics"][name]["value"], 0, f"{w}: {name}")


if __name__ == "__main__":
    unittest.main()
