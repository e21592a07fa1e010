// Scale figure family — delivery ratio and per-node overhead vs N on
// realistic overlay families (beyond the paper's N = 100 tree).
//
// For each overlay family (Barabási–Albert, Watts–Strogatz, random-regular;
// geo-cluster in full mode) and each system size N ∈ {10², 10³, 10⁴}, every
// recovery algorithm runs the figures::scale scenario: constant aggregate
// publish load, Π = 1000 with Zipf popularity and skewed subscription
// counts, oracle-bootstrapped routes. Reported per cell: delivery rate,
// gossip messages per dispatcher, and the per-node memory footprint of the
// engine's hot state (ScenarioResult::memory).
//
// Fast mode (EPICAST_BENCH_FAST=1) trims the N = 10⁴ tier to the
// Barabási–Albert family — the CI scale-smoke configuration. --xl appends
// an N = 10⁵ BA tier; expect minutes per run.
//
// Emits BENCH_scale.json (override with EPICAST_BENCH_JSON / --json=PATH);
// CI's bytes-per-node gate compares it against the committed baseline.
#include "bench_common.hpp"

#include <string>
#include <vector>

namespace {

using namespace epicast;
using namespace epicast::bench;

struct Cell {
  std::string overlay;
  std::uint32_t nodes = 0;
  std::string algorithm;
  ScenarioResult result;
};

}  // namespace

int main(int argc, char** argv) {
  init(argc, argv);
  print_header("scale", "delivery and per-node overhead vs N on overlays");

  const std::vector<OverlayKind> families =
      fast_mode() ? std::vector<OverlayKind>{OverlayKind::BarabasiAlbert,
                                             OverlayKind::WattsStrogatz,
                                             OverlayKind::RandomRegular}
                  : std::vector<OverlayKind>{OverlayKind::BarabasiAlbert,
                                             OverlayKind::WattsStrogatz,
                                             OverlayKind::RandomRegular,
                                             OverlayKind::GeoCluster};
  std::vector<std::uint32_t> sizes = {100, 1000, 10000};

  std::vector<LabeledConfig> configs;
  std::vector<Cell> cells;
  auto add_cell = [&](OverlayKind o, std::uint32_t n, Algorithm a) {
    const ScenarioConfig cfg = figures::scale(a, o, n, measure_s(3.0));
    const std::string label = std::string(to_string(o)) + " N=" +
                              std::to_string(n) + " " + algo_label(a);
    configs.push_back({label, cfg});
    cells.push_back({to_string(o), n, algo_label(a), {}});
  };
  for (OverlayKind o : families) {
    for (std::uint32_t n : sizes) {
      // Fast mode keeps the 10⁴ tier on BA only — the CI smoke budget.
      if (fast_mode() && n >= 10000 && o != OverlayKind::BarabasiAlbert) {
        continue;
      }
      for (Algorithm a : all_algorithms()) add_cell(o, n, a);
    }
  }
  if (BenchEnv::get().xl) {
    for (Algorithm a : all_algorithms()) {
      add_cell(OverlayKind::BarabasiAlbert, 100000, a);
    }
  }

  const auto results = run_figure_sweep(std::move(configs));
  for (std::size_t i = 0; i < results.size(); ++i) {
    cells[i].result = results[i].result;
  }

  std::printf("\n%-16s %7s %-16s %9s %10s %12s\n", "overlay", "N",
              "algorithm", "delivery", "gossip/d", "bytes/node");
  for (const Cell& c : cells) {
    std::printf("%-16s %7u %-16s %9.4f %10.1f %12.0f\n", c.overlay.c_str(),
                c.nodes, c.algorithm.c_str(), c.result.delivery_rate,
                c.result.gossip_msgs_per_dispatcher,
                c.result.memory.bytes_per_node());
  }

  const std::string json_path = BenchEnv::get().json_path.empty()
                                    ? std::string("BENCH_scale.json")
                                    : BenchEnv::get().json_path;
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"cells\": [");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const auto& m = c.result.memory;
      std::fprintf(
          f,
          "%s\n    {\"overlay\": \"%s\", \"nodes\": %u, "
          "\"algorithm\": \"%s\", \"delivery_rate\": %.6f, "
          "\"gossip_msgs_per_dispatcher\": %.3f, "
          "\"gossip_bytes_per_dispatcher\": %.1f, "
          "\"events_published\": %llu, "
          "\"memory\": {\"topology_bytes\": %zu, \"routing_bytes\": %zu, "
          "\"seen_bytes\": %zu, \"cache_bytes\": %zu, "
          "\"tracker_bytes\": %zu, "
          "\"total_bytes\": %zu, \"bytes_per_node\": %.1f}}",
          i == 0 ? "" : ",", c.overlay.c_str(), c.nodes, c.algorithm.c_str(),
          c.result.delivery_rate, c.result.gossip_msgs_per_dispatcher,
          c.result.gossip_bytes_per_dispatcher,
          static_cast<unsigned long long>(c.result.events_published),
          m.topology_bytes, m.routing_bytes, m.seen_bytes, m.cache_bytes,
          m.tracker_bytes, m.total_bytes(), m.bytes_per_node());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }

  print_note(
      "delivery *rises* with N on every cyclic family (multipath route "
      "redundancy masks eps = 0.1 loss, unlike the paper's tree), so "
      "recovery deltas are largest at small N and on the clustered "
      "geo family; the seen-set shrinks ~30x crossing the sparse SeenSet "
      "threshold (2048 sources), and the beta-bounded retransmission "
      "buffers are the dominant per-node term at 10^4 nodes.");
  return 0;
}
