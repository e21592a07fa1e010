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
result line, or "correct": false), or on a workload when
  * the median over pairs of head `run_s` / base `run_s` exceeds
    MAX_RATIO: 1.25 in wall time is a throughput floor of 0.8x. Each pair
    runs back to back, so a ratio within a pair cancels most of a shared
    host's slow phases, which a ratio of the two sides' medians does not;
  * the head's median `peak_rss_mb` exceeds MAX_RSS_RATIO times the base's,
    the bound BENCHMARK.json sets on that metric.
There is no committed baseline to go stale; the base checkout is measured
on the same host in the same job.
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
MAX_RSS_RATIO = 1.15
HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed):
    """Runs one workload from `checkout`; returns (metrics, error or None),
    metrics mapping each metric name to its value."""
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
    return {k: v["value"] for k, v in result["metrics"].items()}, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout to compare against")
    args = ap.parse_args(argv)
    sides = {"base": os.path.abspath(args.base), "head": HEAD}

    failures = []
    for workload in WORKLOADS:
        ratios = []
        rss = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {}
            for side in order:
                metrics, error = run_once(sides[side], workload, i)
                if error:
                    failures.append("%s %s seed %d: %s"
                                    % (workload, side, i, error))
                    continue
                pair[side] = metrics
                rss[side].append(metrics["peak_rss_mb"])
                print("%-20s %s seed %d: run_s %.4f peak_rss_mb %.1f"
                      % (workload, side, i, metrics["run_s"],
                         metrics["peak_rss_mb"]), flush=True)
            if len(pair) == 2:
                ratios.append(pair["head"]["run_s"] / pair["base"]["run_s"])
        if ratios:
            ratio = statistics.median(ratios)
            verdict = "FAIL" if ratio > MAX_RATIO else "ok"
            print("%-20s median per-pair run_s ratio %.3f (limit %.2f) [%s]"
                  % (workload, ratio, MAX_RATIO, verdict))
            if verdict == "FAIL":
                failures.append("%s: median head/base run_s %.3f > %.2f"
                                % (workload, ratio, MAX_RATIO))
        if rss["base"] and rss["head"]:
            base = statistics.median(rss["base"])
            head = statistics.median(rss["head"])
            verdict = "FAIL" if head > MAX_RSS_RATIO * base else "ok"
            print("%-20s median peak_rss_mb base %.1f head %.1f ratio %.3f "
                  "(limit %.2f) [%s]"
                  % (workload, base, head, head / base, MAX_RSS_RATIO,
                     verdict))
            if verdict == "FAIL":
                failures.append("%s: head median peak_rss_mb %.1f > %.2f x "
                                "base %.1f"
                                % (workload, head, MAX_RSS_RATIO, base))
    for f in failures:
        print("perf-smoke: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
