// perfbench — shared pieces of the repository benchmark: options, metric
// records, in-memory spans, and the small statistics and JSON helpers the
// workloads use.
//
// The benchmark measures the library from outside: it times calls into the
// public API and reads counters the library already exposes. Nothing here
// reaches into src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a seconds-long smoke size (benchmark tests).
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome: the contract metrics (end-to-end when
/// untraced, per-layer when traced), the issue-level report lines, the
/// operation counts, and provenance as pre-rendered JSON values.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Metric> metrics;
  /// Human-readable extras printed before the result line (never gated).
  std::vector<Metric> report;
  std::vector<std::pair<std::string, std::string>> provenance;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 16) failures.push_back(why);
  }
  /// Takes over the operations and failures of a part of the run.
  void absorb(const Outcome& part) {
    attempted += part.attempted;
    failed += part.failed;
    for (const std::string& why : part.failures) {
      if (failures.size() < 16) failures.push_back(why);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  void prov(std::string key, std::string json_value) {
    provenance.emplace_back(std::move(key), std::move(json_value));
  }
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own spans, kept in memory and written out at the end.
/// Thread-safe: live daemons record their run() spans from their threads.
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t begin(std::string name, std::uint32_t parent = 0) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      std::move(name), t, 0});
    return spans_.back().id;
  }

  /// Closes span `id` and returns its duration in seconds.
  double end(std::uint32_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_.at(id - 1);
    s.end_ns = t;
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Writes {"origin_ns":…,"spans":[{id,parent,name,start_ns,end_ns}…]}
  /// with times relative to the first span. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call as a span and returns its duration in seconds.
template <typename Fn>
double timed(SpanLog& log, const char* name, std::uint32_t parent, Fn&& fn) {
  const std::uint32_t id = log.begin(name, parent);
  fn();
  return log.end(id);
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Seed of the `index`-th input of a run seeded `seed`: the same --seed
/// always yields the same inputs.
[[nodiscard]] inline std::uint64_t input_seed(std::uint64_t seed,
                                              std::uint32_t index) {
  return seed * 1000003ULL + index;
}

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Renders a finite double with full precision (JSON has no NaN/inf; those
/// become 0 and are a benchmark bug the tests catch).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

/// Every metric the benchmark reports, in output order, with its unit —
/// the single list BENCHMARK.json mirrors. Untraced runs report the
/// end-to-end list, traced runs the per-layer list; a per-layer metric a
/// workload does not exercise reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

// Workload entry points (sim_workloads.cpp, live_workload.cpp).
[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_live_workload(const std::string& name);
void run_sim_workload(const Options& opt, SpanLog& spans, Outcome& out);
void run_live_workload(const Options& opt, SpanLog& spans, Outcome& out);

}  // namespace perfbench
