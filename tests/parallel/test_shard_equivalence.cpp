// Serial-vs-sharded equivalence: the conservative engine must reproduce
// the serial scheduler's results BIT-IDENTICALLY — same result_json bytes,
// same oracle check count — for every algorithm, sizing mode, loss rate,
// seed, shard count, and worker-thread count. This is the contract that
// makes `--shards`/`--threads` results publishable interchangeably with
// serial runs.
#include <gtest/gtest.h>

#include <string>

#include "epicast/fault/plan.hpp"
#include "epicast/scenario/report.hpp"
#include "epicast/scenario/runner.hpp"
#include "scenario_builders.hpp"

namespace epicast {
namespace {

/// Small but complete scenario: every phase (flood, warmup, window,
/// recovery horizon) runs, every protocol path is exercised.
ScenarioConfig quick(Algorithm a, std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(a);
  cfg.nodes = 20;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(1.0);
  cfg.seed = seed;
  return cfg;
}

/// Runs `cfg` serially, then at each shards in {2, 4, 7} × threads in
/// {1, 2, 4}, and asserts every sharded/threaded run is byte-identical to
/// the serial one. threads > shards clamps inside the runner, so the
/// duplicate corner (shards=2, threads=4) still covers the clamp path.
void expect_equivalent(ScenarioConfig cfg, const std::string& what) {
  cfg.shards = 1;
  cfg.threads = 1;
  const ScenarioResult serial = run_scenario(cfg);
  const std::string serial_json = result_json(serial);
  for (const std::uint32_t k : {2u, 4u, 7u}) {
    for (const std::uint32_t t : {1u, 2u, 4u}) {
      cfg.shards = k;
      cfg.threads = t;
      const ScenarioResult sharded = run_scenario(cfg);
      EXPECT_EQ(result_json(sharded), serial_json)
          << what << " diverged at shards=" << k << " threads=" << t;
      EXPECT_EQ(sharded.oracle_checks, serial.oracle_checks)
          << what << " oracle activity differs at shards=" << k
          << " threads=" << t;
      EXPECT_EQ(sharded.sim_events_executed, serial.sim_events_executed)
          << what << " event count differs at shards=" << k
          << " threads=" << t;
    }
  }
}

class ShardEquivalence : public ::testing::TestWithParam<Algorithm> {};

// Each algorithm gets three configurations chosen so that, across the six
// algorithms, the grid covers both sizing modes, losses {0, 0.05, 0.2},
// and seeds 1–5. (The full cross product would be 720 scenario runs;
// the stress test samples that space randomly instead.)
TEST_P(ShardEquivalence, MatchesSerialAcrossSizingLossAndSeeds) {
  const Algorithm a = GetParam();
  const auto idx = static_cast<std::uint64_t>(a);
  struct Combo {
    SizingMode sizing;
    double loss;
    std::uint64_t seed;
  };
  const Combo combos[] = {
      {SizingMode::Nominal, 0.0, 1 + idx % 5},
      {SizingMode::Wire, 0.05, 1 + (idx + 2) % 5},
      {(idx % 2 == 0) ? SizingMode::Nominal : SizingMode::Wire, 0.2,
       1 + (idx + 4) % 5},
  };
  for (const Combo& c : combos) {
    ScenarioConfig cfg = quick(a, c.seed);
    cfg.sizing_mode = c.sizing;
    cfg.link_error_rate = c.loss;
    expect_equivalent(
        cfg, "loss=" + std::to_string(c.loss) +
                 " seed=" + std::to_string(c.seed) +
                 (c.sizing == SizingMode::Wire ? " wire" : " nominal"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ShardEquivalence,
    ::testing::Values(Algorithm::NoRecovery, Algorithm::Push,
                      Algorithm::SubscriberPull, Algorithm::PublisherPull,
                      Algorithm::CombinedPull, Algorithm::RandomPull),
    [](const auto& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShardEquivalenceSpecial, ChurnWithProtocolRouteRepair) {
  ScenarioConfig cfg = quick(Algorithm::Push, 3);
  cfg.reconfiguration_interval = Duration::seconds(0.2);
  cfg.route_repair = ScenarioConfig::RouteRepair::Protocol;
  expect_equivalent(cfg, "churn + protocol route repair");
}

TEST(ShardEquivalenceSpecial, ChaosFaultPlan) {
  ScenarioConfig cfg = quick(Algorithm::CombinedPull, 7);
  std::string err;
  const auto plan = fault::parse_plan(
      "churn(period=0.3,down=0.1);burst(p=0.05,r=0.5,start=0.2,stop=1.0)",
      &err);
  ASSERT_TRUE(plan) << err;
  cfg.faults = *plan;
  expect_equivalent(cfg, "chaos fault plan");
}

TEST(ShardEquivalenceSpecial, OracleBootstrapWithRestrictedPublishers) {
  // The scale path: converged routes installed directly, publishing
  // restricted to a subset — exercises the master lane heavily.
  ScenarioConfig cfg = quick(Algorithm::RandomPull, 9);
  cfg.nodes = 120;
  cfg.bootstrap = ScenarioConfig::SubscriptionBootstrap::Oracle;
  cfg.publisher_count = 12;
  expect_equivalent(cfg, "oracle bootstrap, 120 nodes, 12 publishers");
}

TEST(ShardEquivalenceSpecial, ScaleScenarioAtAThousandNodes) {
  // The scale figures' operating point at a realistic size (random
  // 4-regular overlay, converged routes, 16 publishers), windows trimmed.
  ScenarioConfig cfg = figures::scale(Algorithm::CombinedPull,
                                      OverlayKind::RandomRegular, 1000, 1.0);
  cfg.warmup = Duration::seconds(0.5);
  cfg.recovery_horizon = Duration::seconds(1.0);
  const std::string serial = result_json(run_scenario(cfg));
  cfg.shards = 4;
  for (const std::uint32_t t : {1u, 4u}) {
    cfg.threads = t;
    EXPECT_EQ(result_json(run_scenario(cfg)), serial) << "threads=" << t;
  }
}

TEST(ShardEquivalenceSpecial, ShardsClampToNodeCount) {
  // More shards than nodes clamps rather than creating empty lanes, with
  // and without the worker pool.
  ScenarioConfig cfg = quick(Algorithm::SubscriberPull, 2);
  cfg.shards = 1;
  cfg.threads = 1;
  const std::string serial = result_json(run_scenario(cfg));
  cfg.shards = 64;  // > nodes = 20
  for (const std::uint32_t t : {1u, 4u}) {
    cfg.threads = t;
    EXPECT_EQ(result_json(run_scenario(cfg)), serial) << "threads=" << t;
  }
}

}  // namespace
}  // namespace epicast
