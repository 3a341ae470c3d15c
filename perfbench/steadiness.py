#!/usr/bin/env python3
# ===- perfbench/steadiness.py - Run-to-run agreement of the benchmark ---=== #
#
# Part of graphit-ordered, an independent C++ reproduction of "Optimizing
# Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
#
# ===--------------------------------------------------------------------=== #
"""Check that the benchmark agrees with itself.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] \
        [--workloads road_batch,live_routing] [--seed-base 100]

For each workload, runs `--sets` sets of `--runs` untraced runs of the
same build, each run with its own seed, and prints every end-to-end
metric's median and quartiles per set. Then checks, as BENCHMARK.json's
bounds demand:

  * spread — (Q3 - Q1) / median of each set stays within the metric's
    bound (setup_s is exempt), and is flagged `wide` above a third of it;
  * drift  — the second set's median is not worse than the first's by
    more than the bound (setup_s included).

Finally makes one traced run per workload and reports its
bench.trace_overhead (traced / untraced latency - 1). Exits non-zero when
any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced run per workload")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for r in range(args.runs):
                seed = args.seed_base + s * args.runs + r
                _, result = run(workload, seed, args.seconds, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                    ok = False
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)

        print(f"\n== {workload}: {args.sets} sets x {args.runs} runs, "
              f"{args.seconds:g} s each")
        print(f"{'metric':<14} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, values in enumerate(sets):
                q1, med, q3 = quartiles(values[name])
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "ok"
                if name != "setup_s":
                    if spread > bound:
                        verdict, ok = "FAIL spread", False
                    elif spread > bound / 3:
                        verdict = "wide"
                print(f"{name:<14} {s:>3} {q1:>12.4f} {med:>12.4f} "
                      f"{q3:>12.4f} {spread:>8.3f} {bound:>6.2f}  {verdict}")
            for s in range(1, len(medians)):
                lower = m["better"] == "lower"
                worse = (medians[s] - medians[0]) / medians[0]
                if not lower:
                    worse = -worse
                verdict = "ok" if worse <= bound else "FAIL drift"
                ok = ok and worse <= bound
                print(f"{name:<14} drift set {s} vs 0: {worse:+.3f} "
                      f"(bound {bound})  {verdict}")

        if not args.no_trace:
            detail, result = run(workload, args.seed_base, args.seconds, 1)
            over = detail["metrics"]["bench.trace_overhead"]
            print(f"{workload}: trace overhead {over['value']:+.3f} "
                  f"({over['samples']} samples)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
