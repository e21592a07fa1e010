// Conformance tier — structural-shape regressions for the scale overlay
// generators (net/overlays). The scale figure family (BENCH_scale.json)
// is only meaningful if the generators actually produce the structures
// they claim, so the witnesses asserted here are the ones the bench's
// interpretation leans on:
//
//   * Barabási–Albert degrees are heavy-tailed — the CCDF log-log slope
//     sits in the preferential-attachment band (γ ≈ 3 ⇒ slope ≈ -2);
//   * Watts–Strogatz keeps lattice-like clustering, far above a
//     same-degree random-regular graph (the small-world signature);
//   * every family yields a connected overlay at the bench's degree
//     across several seeds — delivery-rate denominators stay meaningful.
#include <gtest/gtest.h>

#include "epicast/common/rng.hpp"
#include "epicast/net/overlays.hpp"

namespace {

using namespace epicast;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 20040301, 99};

TEST(Overlays, BarabasiAlbertDegreesAreHeavyTailed) {
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    const Topology t = barabasi_albert(4000, 2, rng);
    const double slope = degree_ccdf_slope(t);
    // Finite-size BA runs a little shallower or steeper than the ideal
    // -(γ-1) = -2; anything in this band is unmistakably heavy-tailed,
    // while a regular or Poisson degree graph falls far outside it.
    EXPECT_LT(slope, -1.2) << "seed " << seed;
    EXPECT_GT(slope, -3.5) << "seed " << seed;
  }
}

TEST(Overlays, WattsStrogatzClustersAboveRandomRegular) {
  for (std::uint64_t seed : kSeeds) {
    Rng ws_rng(seed);
    Rng rr_rng(seed);
    const Topology ws = watts_strogatz(2000, 8, 0.1, ws_rng);
    const Topology rr = random_regular(2000, 8, rr_rng);
    const double c_ws = clustering_coefficient(ws);
    const double c_rr = clustering_coefficient(rr);
    // Ring lattice with k = 8 clusters at 3(k-2)/(4(k-1)) ≈ 0.64; 10%
    // rewiring erodes it to ≈ 0.64·(1-p)³ ≈ 0.47. A random regular graph
    // clusters at ≈ d/N ≈ 0.004. A 10× margin keeps the assertion far
    // from seed noise while catching any lattice/rewire regression.
    EXPECT_GT(c_ws, 10.0 * c_rr) << "seed " << seed;
    EXPECT_GT(c_ws, 0.2) << "seed " << seed;
  }
}

TEST(Overlays, EveryFamilyConnectedAtBenchDegree) {
  const OverlayKind families[] = {
      OverlayKind::Tree, OverlayKind::BarabasiAlbert,
      OverlayKind::WattsStrogatz, OverlayKind::RandomRegular,
      OverlayKind::GeoCluster};
  for (OverlayKind kind : families) {
    for (std::uint64_t seed : kSeeds) {
      Rng rng(seed);
      // Degree 4 is what figures::scale runs; 1000 nodes keeps the five
      // seeds cheap while leaving room for fragmentation bugs to show.
      const Topology t = make_overlay(kind, 1000, 4, 0.1, rng);
      EXPECT_TRUE(t.connected())
          << to_string(kind) << " seed " << seed << " is disconnected";
      EXPECT_EQ(t.node_count(), 1000u) << to_string(kind);
    }
  }
}

/// The generators must be deterministic in (parameters, rng state): the
/// scale benches and their committed baselines depend on it.
TEST(Overlays, GenerationIsDeterministic) {
  for (OverlayKind kind :
       {OverlayKind::BarabasiAlbert, OverlayKind::WattsStrogatz,
        OverlayKind::RandomRegular, OverlayKind::GeoCluster}) {
    Rng a(7);
    Rng b(7);
    const Topology ta = make_overlay(kind, 500, 4, 0.1, a);
    const Topology tb = make_overlay(kind, 500, 4, 0.1, b);
    ASSERT_EQ(ta.node_count(), tb.node_count());
    for (std::uint32_t n = 0; n < ta.node_count(); ++n) {
      const auto na = ta.neighbors(NodeId{n});
      const auto nb = tb.neighbors(NodeId{n});
      ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
                std::vector<NodeId>(nb.begin(), nb.end()))
          << to_string(kind) << " node " << n;
    }
  }
}

/// overlay_is_tree is what admits flood bootstrap on a scale family, so it
/// must name exactly the configurations whose built overlay is a tree
/// (connected with nodes - 1 links), on every family, degree and seed.
TEST(Overlays, OverlayIsTreeMatchesTheBuiltTopology) {
  for (OverlayKind kind :
       {OverlayKind::Tree, OverlayKind::BarabasiAlbert,
        OverlayKind::WattsStrogatz, OverlayKind::RandomRegular,
        OverlayKind::GeoCluster}) {
    for (std::uint32_t nodes : {3u, 10u, 60u, 500u}) {
      for (std::uint32_t degree : {1u, 2u, 3u, 4u, 6u}) {
        if (kind == OverlayKind::Tree && degree < 2) continue;
        if (kind == OverlayKind::RandomRegular && degree >= nodes) continue;
        const bool tree = overlay_is_tree(kind, nodes, degree);
        for (std::uint64_t seed : kSeeds) {
          Rng rng(seed);
          const Topology t = make_overlay(kind, nodes, degree, 0.1, rng);
          ASSERT_TRUE(t.connected());
          EXPECT_EQ(tree, t.link_count() == nodes - 1)
              << to_string(kind) << " nodes " << nodes << " degree "
              << degree << " seed " << seed << ": " << t.link_count()
              << " links";
        }
      }
    }
  }
}

}  // namespace
