// Data-race regression tier for the worker pool. These scenarios are
// chosen to maximise cross-thread traffic through every shared structure
// the threaded engine touches — mailbox posts from worker lanes, deferred
// observer/oracle/tracker replay, pool hand-offs of cross-shard
// MessagePtrs, fault-filter reads of master-written crash state — and are
// meant to run under TSan (ctest -L parallel on the sanitizer job; each
// test pins its thread counts). Functionally they assert the same
// byte-identity contract as the equivalence tier, so they also earn their
// keep in plain builds.
#include <gtest/gtest.h>

#include <string>

#include "epicast/fault/plan.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/scenario/runner.hpp"

namespace epicast {
namespace {

using metrics::result_json;

void expect_threaded_matches_serial(ScenarioConfig cfg,
                                    const std::string& what) {
  cfg.shards = 1;
  cfg.threads = 1;
  const ScenarioResult serial = run_scenario(cfg);
  const std::string serial_json = result_json(serial);
  for (const std::uint32_t t : {2u, 4u}) {
    cfg.shards = 4;
    cfg.threads = t;
    const ScenarioResult threaded = run_scenario(cfg);
    EXPECT_EQ(result_json(threaded), serial_json)
        << what << " diverged at threads=" << t;
    EXPECT_EQ(threaded.oracle_checks, serial.oracle_checks)
        << what << " oracle activity differs at threads=" << t;
    // Pool stats are deliberately NOT compared: deferred callbacks hold
    // message blocks across barriers, so allocation/reuse patterns are
    // execution artifacts — excluded from result_json for the same reason.
    // Races in the pool itself are TSan's job on the sanitizer run.
  }
}

// Dense cross-shard gossip: every node publishes, pull-based recovery keeps
// request/reply pairs crossing lane boundaries for the whole run.
TEST(ThreadRaces, DenseGossipCrossTraffic) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 32;
  cfg.seed = 21;
  cfg.warmup = Duration::seconds(0.3);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(0.8);
  cfg.link_error_rate = 0.15;  // plenty of recovery traffic
  expect_threaded_matches_serial(cfg, "dense gossip");
}

// Churn + chaos: master-lane topology mutations and crash/burst state are
// written in serial windows and read by workers — the barrier
// happens-before edge under test.
TEST(ThreadRaces, ChurnAndChaosMasterState) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::Push);
  cfg.nodes = 24;
  cfg.seed = 5;
  cfg.warmup = Duration::seconds(0.3);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(0.8);
  cfg.reconfiguration_interval = Duration::seconds(0.2);
  std::string err;
  const auto plan = fault::parse_plan(
      "churn(period=0.3,down=0.1);burst(p=0.05,r=0.5,start=0.2,stop=1.0)",
      &err);
  ASSERT_TRUE(plan) << err;
  cfg.faults = *plan;
  expect_threaded_matches_serial(cfg, "churn + chaos");
}

// Wire sizing walks the codec on every send from worker threads; the
// profiler timing path adds the per-lane clock reads.
TEST(ThreadRaces, WireSizingWithProfiler) {
  ScenarioConfig cfg =
      ScenarioConfig::paper_defaults(Algorithm::SubscriberPull);
  cfg.nodes = 28;
  cfg.seed = 13;
  cfg.warmup = Duration::seconds(0.3);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(0.8);
  cfg.sizing_mode = SizingMode::Wire;
  cfg.profile_hotpath = true;
  expect_threaded_matches_serial(cfg, "wire sizing + profiler");
}

}  // namespace
}  // namespace epicast
