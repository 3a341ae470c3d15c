#!/usr/bin/env python3
# ===- perfbench/run.py - Build and run one benchmark workload -----------=== #
#
# Part of graphit-ordered, an independent C++ reproduction of "Optimizing
# Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
#
# ===--------------------------------------------------------------------=== #
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload road_batch --seed 1 --seconds 20 \
        --trace 0

Configures and builds perfbench/CMakeLists.txt (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; build output goes to stderr. Then runs the
binary and prints two lines on stdout:

  1. the binary's full result: every metric with unit and sample count,
     the run's configuration, and failures by kind;
  2. the result in the form BENCHMARK.json promises: `correct`,
     `attempted`, `failed` and `metrics`, the latter holding exactly the
     `end_to_end` metrics (--trace 0) or the `per_layer` ones (--trace 1).

With --trace 1 the recorded spans are written next to the build, under
traces/. Exits non-zero without a result line when the build fails or a
promised metric is missing, and non-zero after printing the result when
any answer disagreed with its oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("road_batch", "social_batch", "live_routing", "live_depots")
# The default seed; 1000003 is held out for validating later claims.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    jobs = str(os.cpu_count() or 4)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    exe = out / "perfbench"
    if not exe.exists():
        fail("build produced no benchmark binary")
    return exe


def promised_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.spans.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"benchmark printed no result (exit {proc.returncode})")
    detail = json.loads(lines[-1])

    metrics = {}
    for m in promised_metrics(args.trace):
        got = detail["metrics"].get(m["name"])
        if got is None:
            fail(f"benchmark did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != promised {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    correct = bool(detail["correct"]) and proc.returncode == 0
    print(json.dumps(detail))
    print(json.dumps({"correct": correct,
                      "attempted": int(detail["attempted"]),
                      "failed": int(detail["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
