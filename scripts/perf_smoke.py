#!/usr/bin/env python3
"""Compare perfbench wall time between a base checkout and this one.

    python3 scripts/perf_smoke.py --base ../base-checkout

For each workload in WORKLOADS the script runs `perfbench/run.py --trace 0`
from both checkouts in PAIRS pairs of SECONDS each, seed i for pair i,
alternating which side runs first so slow phases of a shared host fall on
both sides alike. The head is the checkout this script lives in. Each
checkout builds its own perfbench binary under its own .bench_build/ on the
first run (CARGO_TARGET_DIR, which would make the two share one build, is
dropped from the runs' environment).

It fails (exit 1) when any run is not correct (nonzero exit, a missing
result line, or "correct": false), or when the head's median `run_s` on a
workload exceeds MAX_RATIO times the base's: 1.25 in wall time is a
throughput floor of 0.8x. There is no committed baseline to go stale; the
base checkout is measured on the same host in the same job.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("paper-combined-pull", "scale-sharded")
PAIRS = 3
SECONDS = 8
MAX_RATIO = 1.25
HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed):
    """Runs one workload from `checkout`; returns (run_s, error or None)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return None, "exit %d, %s" % (proc.returncode, tail)
    return result["metrics"]["run_s"]["value"], None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout to compare against")
    args = ap.parse_args(argv)
    sides = {"base": os.path.abspath(args.base), "head": HEAD}

    failures = []
    for workload in WORKLOADS:
        times = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                run_s, error = run_once(sides[side], workload, i)
                if error:
                    failures.append("%s %s seed %d: %s"
                                    % (workload, side, i, error))
                    continue
                times[side].append(run_s)
                print("%-20s %s seed %d: run_s %.4f"
                      % (workload, side, i, run_s), flush=True)
        if not times["base"] or not times["head"]:
            continue
        base = statistics.median(times["base"])
        head = statistics.median(times["head"])
        ratio = head / base
        verdict = "FAIL" if ratio > MAX_RATIO else "ok"
        print("%-20s median run_s base %.4f head %.4f ratio %.3f "
              "(limit %.2f) [%s]"
              % (workload, base, head, ratio, MAX_RATIO, verdict))
        if verdict == "FAIL":
            failures.append("%s: head median run_s %.4f > %.2f x base %.4f"
                            % (workload, head, MAX_RATIO, base))
    for f in failures:
        print("perf-smoke: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
