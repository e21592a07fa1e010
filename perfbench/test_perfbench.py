#!/usr/bin/env python3
"""Tests of the repository benchmark itself, on smoke-sized (--tiny) inputs.

    python3 perfbench/test_perfbench.py

Checks that every workload reports exactly the metrics BENCHMARK.json names,
with their units, that the same seed reproduces identical simulation counts,
that the span file covers each workload's set-up and run calls, and that the
command refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path) as f:
        return json.load(f)


SPEC = load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_COUNTS = ("sim.events", "net.overlay_sends", "net.direct_sends",
              "pubsub.dispatch_ops", "pubsub.forward_ops",
              "pubsub.control_ops", "gossip.round_ops", "gossip.handle_ops",
              "gossip.cache_ops", "oracle.checks", "net.topology_bytes",
              "pubsub.routing_bytes", "gossip.msgs_per_dispatcher")
SIM_QUALITY = ("delivery_rate", "eventual_delivery", "msgs_per_delivery",
               "published_ratio")


def run(workload, seed, trace, seconds=0.2, cwd=ROOT):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=300)
    return p.returncode, p.stdout.strip().splitlines()


def result(workload, seed, trace):
    rc, lines = run(workload, seed, trace)
    assert rc == 0, "\n".join(lines[-20:])
    return json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class Metrics(unittest.TestCase):
    def check_catalog(self, res, catalog):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in catalog])
        for m in catalog:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_every_workload_reports_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                res = result(w, 7, 0)
                self.check_catalog(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=w, trace=1):
                self.check_catalog(result(w, 7, 1), SPEC["per_layer"])

    def test_same_seed_reproduces_sim_counts(self):
        for w in ("paper-combined-pull", "churn-protocol-repair"):
            with self.subTest(workload=w):
                a, b = result(w, 5, 1)["metrics"], result(w, 5, 1)["metrics"]
                for name in SIM_COUNTS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertGreater(a["sim.events"]["value"], 0)
                other = result(w, 6, 1)["metrics"]
                self.assertNotEqual(a["sim.events"]["value"],
                                    other["sim.events"]["value"])
                a, b = result(w, 5, 0)["metrics"], result(w, 5, 0)["metrics"]
                for name in SIM_QUALITY:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_span_file_covers_setup_and_run_calls(self):
        expected = {
            "paper-combined-pull": {"setup", "make_overlay", "route_bootstrap",
                                    "run_scenario"},
            "scale-sharded": {"setup", "make_overlay", "route_bootstrap",
                              "run_scenario", "run_scenario_serial"},
            "live-loopback": {"daemon_construct", "daemon_run",
                              "daemon_run_node", "codec_replay"},
        }
        for w, names in expected.items():
            with self.subTest(workload=w):
                result(w, 3, 1)
                path = os.path.join(ROOT, ".bench_out",
                                    "%s-seed3-trace1.spans.json" % w)
                spans = load_json(path)["spans"]
                self.assertLessEqual(names, {s["name"] for s in spans})
                ids = {s["id"] for s in spans}
                for s in spans:
                    self.assertGreaterEqual(s["end_ns"], s["start_ns"])
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids)


class Checkout(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=out)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = run(WORKLOADS[0], 1, 0, cwd=tmp)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(l.startswith('{"correct"') for l in lines))
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    sys.exit(unittest.main())
