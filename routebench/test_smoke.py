#!/usr/bin/env python3
"""Smoke test of the routing benchmark, on a tiny generated chip.

    python3 routebench/test_smoke.py

Runs each workload once plus its traced run (--chip smoke --trace 1, a few
seconds each once the benchmark is built) and checks the result line, that
every metric BENCHMARK.json names is reported with its unit, and that the
trace holds a span for every public call the per-layer metrics time.  Also
checks the environment guard and that the command fails without the
program's sources.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD = BUILD / "routebench"

UNGATED = {"opens": "count", "scenic25_nets": "count",
           "eco_changed_nets": "count"}
PARTIAL = {"router.pre_detailed_s", "detailed.route_s", "detailed.search_s",
           "detailed.other_s", "router.cleanup_s", "global.route_s",
           "global.isr_route_s"}
# Spans of the traced run: the set-up calls, the workload's calls, and one
# per probe batch.
COMMON_SPANS = {
    "traced_run", "setup", "workload", "probes", "db.load_chip",
    "detailed.space_build", "db.load_result", "detailed.space_load",
    "fastgrid.rebuild", "shapegrid.insert_all", "shapegrid.query",
    "shapegrid.capture", "drc.check", "drc.audit", "fastgrid.on_change_all",
    "detailed.txn_rip_rollback", "detailed.commit_path",
    "detailed.net_connected", "detailed.precompute_access",
    "detailed.search_replay",
}
CALL_SPAN = {"bulk": "router.run_bonnroute_flow",
             "eco": "router.reroute_nets",
             "isr": "router.run_isr_flow"}


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "routebench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def check_workload(self, workload):
        proc = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", "1", "--chip", "smoke"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         want)

        last = json.loads((BUILD / "history.jsonl").read_text()
                          .splitlines()[-1])
        self.assertEqual((last["workload"], last["chip"], last["seed"]),
                         (workload, "smoke", 7))
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in last["end_to_end"].items()},
                         want)
        for name, v in last["end_to_end"].items():
            self.assertGreater(v["value"], 0, name)
        self.assertEqual({k: v["unit"] for k, v in last["ungated"].items()},
                         UNGATED)
        self.assertEqual(set(last["per_layer_partial"]), PARTIAL)

        trace = json.loads((BUILD / "traces" / f"{workload}-smoke-seed7.json")
                           .read_text())
        spans = {e["name"] for e in trace if e["ph"] == "X"}
        self.assertLessEqual(COMMON_SPANS | {CALL_SPAN[workload]}, spans)

    def test_bulk(self):
        self.check_workload("bulk")

    def test_eco(self):
        self.check_workload("eco")

    def test_isr(self):
        self.check_workload("isr")

    def test_env_guard(self):
        env = dict(os.environ, BONN_THREADS="2")
        proc = run(["--workload", "bulk", "--seed", "1", "--seconds", "0",
                    "--chip", "smoke"], env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("BONN_THREADS", proc.stderr)

    def test_fails_without_sources(self):
        bare = BUILD / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "routebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            proc = run(["--workload", "bulk", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
