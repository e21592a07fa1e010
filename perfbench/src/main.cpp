// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--git-commit <sha>]
//             [--source-digest <hex>]
//
// Runs one workload for about --seconds seconds, checks its outputs, and
// prints one metric per line followed by the result line
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}…}}
// Untraced runs report the end-to-end metrics, traced runs (--trace 1) the
// per-layer metrics. The spans and a full report (provenance included) go
// to .bench_out/ under the working directory. Exit code 1 on any
// correctness failure, 2 on bad usage.
// perfbench/run.py builds this binary and is the command to use.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"origin_ns\": " << origin << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
       << ", \"start_ns\": " << (s.start_ns - origin)
       << ", \"end_ns\": " << (s.end_ns - origin) << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"run_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"delivery_rate", "share"},
      {"eventual_delivery", "share"},
      {"msgs_per_delivery", "count"},
      {"published_ratio", "share"},
      {"ok_share", "share"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = {
      {"sim.events", "count"},
      {"sim.windows", "count"},
      {"sim.events_per_window", "count"},
      {"sim.parallel_window_share", "share"},
      {"sim.cross_post_ratio", "share"},
      {"sim.barrier_wait_share", "share"},
      {"sim.speedup_vs_serial", "x"},
      {"net.overlay_sends", "count"},
      {"net.overlay_ns_per_send", "ns"},
      {"net.direct_sends", "count"},
      {"net.direct_ns_per_send", "ns"},
      {"net.topology_bytes", "bytes"},
      {"net.overlay_build_s", "s"},
      {"pubsub.dispatch_ops", "count"},
      {"pubsub.dispatch_ns_per_op", "ns"},
      {"pubsub.forward_ops", "count"},
      {"pubsub.forward_ns_per_op", "ns"},
      {"pubsub.control_ops", "count"},
      {"pubsub.control_ns_per_op", "ns"},
      {"pubsub.route_bootstrap_s", "s"},
      {"pubsub.routing_bytes", "bytes"},
      {"pubsub.seen_bytes", "bytes"},
      {"pubsub.drops_no_link", "count"},
      {"gossip.round_ops", "count"},
      {"gossip.round_ns_per_op", "ns"},
      {"gossip.handle_ops", "count"},
      {"gossip.handle_ns_per_op", "ns"},
      {"gossip.cache_ops", "count"},
      {"gossip.cache_ns_per_op", "ns"},
      {"gossip.recovered_per_digest", "ratio"},
      {"gossip.cache_bytes", "bytes"},
      {"gossip.msgs_per_dispatcher", "count"},
      {"pool.reuse_ratio", "share"},
      {"pool.slab_bytes", "bytes"},
      {"oracle.checks", "count"},
      {"oracle.overhead_share", "share"},
      {"metrics.tracker_bytes", "bytes"},
      {"wire.frames", "count"},
      {"wire.bytes_per_frame", "bytes"},
      {"wire.encode_ns_per_frame", "ns"},
      {"wire.decode_ns_per_frame", "ns"},
      {"runtime.datagrams_sent", "count"},
      {"runtime.datagrams_received", "count"},
      {"runtime.timers_fired", "count"},
      {"runtime.queue_overflows", "count"},
      {"runtime.send_failures", "count"},
      {"runtime.decode_errors", "count"},
      {"daemon.recovered_share", "share"},
      {"daemon.hop_p99_ms", "ms"},
      {"daemon.deliver_p50_ms", "ms"},
      {"daemon.deliver_p99_ms", "ms"},
      {"daemon.deliver_samples", "count"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_share", "share"},
      {"trace.run_s", "s"},
      {"trace.untraced_run_s", "s"},
      {"trace.spans", "count"},
  };
  return m;
}

namespace {

/// Puts the workload's metrics in catalog order. A per-layer metric the
/// workload does not exercise reads 0; a missing end-to-end metric, an
/// unknown name or a unit mismatch is a benchmark bug and fails the run.
std::vector<Metric> in_catalog_order(Outcome& out, bool trace) {
  const std::vector<MetricSpec>& catalog =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : catalog) {
    const auto it =
        std::find_if(out.metrics.begin(), out.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    if (it == out.metrics.end()) {
      if (!trace) out.fail(std::string("metric missing: ") + spec.name);
      ordered.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->unit != spec.unit) {
      out.fail("unit mismatch for " + it->name + ": " + it->unit);
    }
    ordered.push_back(*it);
  }
  for (const Metric& m : out.metrics) {
    if (std::none_of(catalog.begin(), catalog.end(),
                     [&](const MetricSpec& s) { return m.name == s.name; })) {
      out.fail("metric outside the catalog: " + m.name);
    }
  }
  return ordered;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny]\n"
               "workloads: paper-combined-pull scale-sharded "
               "churn-protocol-repair live-loopback\n";
  std::exit(2);
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i == 0 ? "" : ", ") + json_string(m.name) +
         ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string git_commit;
  std::string source_digest;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--git-commit") {
        git_commit = value();
      } else if (a == "--source-digest") {
        source_digest = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  const bool sim = is_sim_workload(opt.workload);
  if (!sim && !is_live_workload(opt.workload)) {
    usage("unknown workload '" + opt.workload + "'");
  }

  Outcome out;
  out.prov("workload", json_string(opt.workload));
  out.prov("seed", std::to_string(opt.seed));
  out.prov("seconds", json_number(opt.seconds));
  out.prov("trace", opt.trace ? "true" : "false");
  out.prov("tiny", opt.tiny ? "true" : "false");
  out.prov("nproc", std::to_string(std::thread::hardware_concurrency()));
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int affinity =
      sched_getaffinity(0, sizeof(mask), &mask) == 0 ? CPU_COUNT(&mask) : -1;
  out.prov("affinity_cpus", std::to_string(affinity));
  out.prov("build_type", json_string(PERFBENCH_BUILD_TYPE));
  out.prov("git_commit",
           git_commit.empty() ? "null" : json_string(git_commit));
  out.prov("source_digest",
           source_digest.empty() ? "null" : json_string(source_digest));

  SpanLog spans;
  try {
    if (sim) {
      run_sim_workload(opt, spans, out);
    } else {
      run_live_workload(opt, spans, out);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }
  if (out.attempted == 0) out.fail("no operation completed");
  out.attempted = std::max(out.attempted, out.failed);
  const double failed_share = ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted));
  if (!opt.trace) out.add("ok_share", 1.0 - failed_share, "share");
  out.note("failed_share", failed_share, "share");
  out.metrics = in_catalog_order(out, opt.trace);
  out.attempted = std::max(out.attempted, out.failed);

  const bool correct = out.failed == 0;
  const std::string out_dir = ".bench_out";
  const std::string stem = out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!spans.write_json(stem + ".spans.json")) {
    std::cerr << "perfbench: could not write " << stem << ".spans.json\n";
  }

  std::string prov = "{";
  for (std::size_t i = 0; i < out.provenance.size(); ++i) {
    prov += (i == 0 ? "" : ", ") + json_string(out.provenance[i].first) +
            ": " + out.provenance[i].second;
  }
  prov += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    failures += (i == 0 ? "" : ", ") + json_string(out.failures[i]);
  }
  failures += "]";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metrics_object(out.metrics) + "}";
  {
    std::ofstream os(stem + ".report.json");
    os << "{\"provenance\": " << prov << ",\n \"failures\": " << failures
       << ",\n \"report\": " << metrics_object(out.report)
       << ",\n \"result\": " << result << "}\n";
  }

  for (const Metric& m : out.report) {
    std::printf("report %-34s %18s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-34s %18s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& f : out.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
  std::printf("provenance %s\n", prov.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
