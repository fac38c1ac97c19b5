#!/usr/bin/env python3
"""Routing benchmark: one command per workload run.

    python3 routebench/run.py --workload bulk|eco|isr --seed N --seconds S \
        --trace 0|1 [--chip bench|smoke|chip1]

Run from the root of a checkout.  It builds routebench/ (which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR/routebench, default
.bench_build/routebench; generates the workload's input files; runs the
workload's closed loop for S seconds; checks the outputs; and prints, as the
last line of stdout, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 1 adds a traced run and reports the per-layer metrics
instead of the end-to-end ones; the Chrome trace is written under
<build>/traces/.  Every run appends its start time, raw samples and metrics
to <build>/history.jsonl.  The exit code is 0 only when every output check
passed.  See routebench/README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# Variables that change the measured program (threads, fault injection,
# auditing, observability, budgets, checkpoints, logging).
GUARDED_ENV = [
    "BONN_THREADS", "BONN_FAULTS", "BONN_AUDIT", "BONN_OBS", "BONN_FLIGHT",
    "BONN_FLIGHT_TRACE", "BONN_TRACE", "BONN_REPORT", "BONN_DEADLINE_S",
    "BONN_MEM_GB", "BONN_WATCHDOG_S", "BONN_CHECKPOINT", "BONN_LOG",
]

# A run must end within 180 s; the first one also builds.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "routebench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("routebench: the program's sources (src/) are not in", ROOT)
        return None
    if shutil.which("cmake") is None:
        log("routebench: cmake is not installed")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "routebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, timeout=BUILD_TIMEOUT_S,
                          stdout=sys.stderr).returncode != 0:
            log("routebench: build step failed:", " ".join(cmd))
            return None
    return out / "routebench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk", "eco", "isr"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--chip", default="bench",
                    choices=["bench", "smoke", "chip1"],
                    help="bench: the measured chip; smoke: a tiny chip for "
                         "the smoke test; chip1: BENCH_6's chip1, bulk only, "
                         "checked for continuity with BENCH_6.json")
    args = ap.parse_args()
    if args.chip == "chip1" and args.workload != "bulk":
        ap.error("--chip chip1 runs the bulk workload only")

    guarded = [v for v in GUARDED_ENV if v in os.environ]
    if guarded:
        log("routebench: refusing to run with", ", ".join(guarded),
            "set: these change the measured program")
        return 2

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    name = f"{args.workload}-{args.chip}-seed{args.seed}"
    work = out / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = work / "record.json"
    trace = out / "traces" / f"{name}.json"
    common = ["--workload", args.workload, "--chip", args.chip,
              "--dir", str(work)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        gen = subprocess.run([str(binary), "gen"] + common,
                             timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
        if gen.returncode != 0:
            log("routebench: generating the inputs failed")
            return 1
        cmd = [str(binary), "run"] + common + [
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--record", str(record)]
        if args.trace:
            trace.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", str(trace)]
        left = max(1.0, deadline - time.monotonic())
        proc = subprocess.run(cmd, timeout=left, stdout=subprocess.PIPE,
                              text=True)
        code = proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        if not record.is_file() or not lines[-1].startswith("{"):
            sys.stdout.write(proc.stdout)
            log(f"routebench: the run failed (exit code {code})")
            return 1
        result = json.loads(lines[-1])
        rec = json.loads(record.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The same build must give the same results for a seed in every run.
    history = out / "history.jsonl"
    rec["binary_mtime_ns"] = binary.stat().st_mtime_ns
    key = ("workload", "chip", "seed", "binary_mtime_ns")
    earlier = set()
    if history.is_file():
        for line in history.read_text().splitlines():
            h = json.loads(line)
            if all(h.get(k) == rec[k] for k in key):
                earlier.add(h["result_digest"])
    same = earlier <= {rec["result_digest"]}
    lines.insert(-1, "check {:<36} {}".format(
        "determinism.across_runs", "ok" if same else
        "FAILED  another run with this seed returned other results"))
    if not same:
        result["correct"] = False
        code = code or 1

    rec["trace"] = args.trace
    rec["correct"] = result["correct"]
    with history.open("a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")

    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
