#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Builds the perfbench binary (perfbench/CMakeLists.txt compiles the library
from src/ and include/) into $CARGO_TARGET_DIR or .bench_build, then runs the
workload. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Spans and a full report
with provenance land in .bench_out/. Exits nonzero, without a result line,
when the library sources are missing or the build fails; exits 1 after the
result line when an output check failed.

Workloads, metrics and the layer map: perfbench/README.md, BENCHMARK.json.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-combined-pull", "scale-sharded", "churn-protocol-repair",
             "live-loopback")
# Directories and files whose contents define what is measured.
SOURCE_INPUTS = ("src", "include", os.path.join("bench", "scenario_builders.hpp"),
                 "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include", "epicast"))):
        fail("library sources (src/, include/epicast/) not found next to "
             "perfbench/ - run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        cmds = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmds.append(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"] + gen)
        cmds.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        with open(log_path, "w") as log:
            for cmd in cmds:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail("build step failed: %s (%s)" % (" ".join(cmd), e), 1)
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed, see " + log_path, 1)
    return os.path.join(out, "perfbench")


def library_env():
    """This environment without the EPICAST_* variables the library reads
    (faults, sizing, pool, shards, threads, profiling, oracles), so every
    workload runs the library defaults whatever the caller's environment."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EPICAST_")}


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def source_digest():
    """sha256 over the measured sources, stable across checkouts (the driver's
    checkout is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    paths = []
    for rel in SOURCE_INPUTS:
        full = os.path.join(ROOT, rel)
        if os.path.isfile(full):
            paths.append(rel)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in filenames:
                paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(paths):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-sized inputs (benchmark tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-digest", source_digest()]
    commit = git_commit()
    if commit:
        cmd += ["--git-commit", commit]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=library_env(),
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 1)
    if rc < 0:
        fail("perfbench died with signal %d (an oracle abort is a correctness "
             "failure)" % -rc, 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
