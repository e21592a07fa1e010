// Determinism property tests: a scenario is a pure function of
// (config, seed) for every algorithm and for the churn scenario; unrelated
// configuration flips do not leak randomness between components.
#include <gtest/gtest.h>

#include <string>

#include "epicast/common/rng.hpp"
#include "epicast/scenario/runner.hpp"
#include "epicast/sim/scheduler.hpp"

namespace epicast {
namespace {

ScenarioConfig quick(Algorithm a, std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(a);
  cfg.nodes = 20;
  cfg.seed = seed;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(1.0);
  cfg.recovery_horizon = Duration::seconds(1.0);
  return cfg;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.events_published, b.events_published);
  EXPECT_EQ(a.expected_pairs, b.expected_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.sim_events_executed, b.sim_events_executed);
  EXPECT_EQ(a.traffic.gossip_sends(), b.traffic.gossip_sends());
  EXPECT_EQ(a.traffic.event_sends(), b.traffic.event_sends());
  EXPECT_DOUBLE_EQ(a.delivery_rate, b.delivery_rate);
  ASSERT_EQ(a.delivery_series.size(), b.delivery_series.size());
  for (std::size_t i = 0; i < a.delivery_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delivery_series.points()[i].y,
                     b.delivery_series.points()[i].y);
  }
}

class AlgorithmDeterminism : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmDeterminism, RerunIsBitIdentical) {
  const ScenarioConfig cfg = quick(GetParam(), 404);
  expect_identical(run_scenario(cfg), run_scenario(cfg));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmDeterminism,
                         ::testing::Values(Algorithm::NoRecovery,
                                           Algorithm::Push,
                                           Algorithm::SubscriberPull,
                                           Algorithm::PublisherPull,
                                           Algorithm::CombinedPull,
                                           Algorithm::RandomPull));

TEST(Determinism, ChurnScenarioIsReproducible) {
  ScenarioConfig cfg = quick(Algorithm::Push, 11);
  cfg.link_error_rate = 0.0;
  cfg.reconfiguration_interval = Duration::millis(100);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  expect_identical(a, b);
  EXPECT_EQ(a.reconfig_breaks, b.reconfig_breaks);
  EXPECT_EQ(a.drops_no_link, b.drops_no_link);
}

TEST(Determinism, SeedChangesEverything) {
  const ScenarioResult a = run_scenario(quick(Algorithm::CombinedPull, 1));
  const ScenarioResult b = run_scenario(quick(Algorithm::CombinedPull, 2));
  EXPECT_NE(a.sim_events_executed, b.sim_events_executed);
}

// Seed guard against the pre-wire-layer reference run: in SizingMode::Nominal
// the simulation must reproduce the exact numbers the codebase produced
// before the codec existed — the wire layer may only change behaviour when
// explicitly opted into. Constants captured from the seed build at
// quick(a, 404). If a change legitimately alters the simulation (paper-
// fidelity fix, RNG reordering), re-capture them in the same commit and say
// so in the message.
TEST(Determinism, NominalModeMatchesPreWireSeedReference) {
  struct Reference {
    Algorithm algorithm;
    std::uint64_t events_published, expected_pairs, delivered_pairs,
        recovered_pairs, sim_events_executed, gossip_sends, event_sends;
    double delivery_rate;
  };
  // Pin bump (worker-pool PR): the link/direct/burst loss and latency
  // streams moved from one shared RNG to per-sender forks so worker lanes
  // never contend on a stream. That reorders the draw sequence once, in
  // serial and sharded paths alike; values re-captured at this commit.
  const Reference refs[] = {
      {Algorithm::Push, 2653, 1580, 1356, 280, 19531, 2451, 3493,
       0x1.b769a3f839087p-1},
      {Algorithm::CombinedPull, 2653, 1580, 1321, 256, 15931, 611, 3514,
       0x1.ac12259701f1cp-1},
  };
  for (const Reference& ref : refs) {
    // shards=4 runs through the conservative parallel engine and
    // shards=4/threads=4 through its worker pool — both bit-identical to
    // the serial path by contract, so the committed pins must hold
    // unchanged there too.
    for (const auto& [shards, threads] :
         {std::pair{1u, 1u}, {4u, 1u}, {4u, 4u}}) {
      ScenarioConfig cfg = quick(ref.algorithm, 404);
      // Pin explicitly: this guard must hold even when the suite runs under
      // EPICAST_SIZING=wire (the CI wire job).
      cfg.sizing_mode = SizingMode::Nominal;
      cfg.shards = shards;
      cfg.threads = threads;
      const ScenarioResult r = run_scenario(cfg);
      SCOPED_TRACE(std::string(to_string(ref.algorithm)) + " shards=" +
                   std::to_string(shards) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(r.events_published, ref.events_published);
      EXPECT_EQ(r.expected_pairs, ref.expected_pairs);
      EXPECT_EQ(r.delivered_pairs, ref.delivered_pairs);
      EXPECT_EQ(r.recovered_pairs, ref.recovered_pairs);
      EXPECT_EQ(r.sim_events_executed, ref.sim_events_executed);
      EXPECT_EQ(r.traffic.gossip_sends(), ref.gossip_sends);
      EXPECT_EQ(r.traffic.event_sends(), ref.event_sends);
      EXPECT_DOUBLE_EQ(r.delivery_rate, ref.delivery_rate);
    }
  }
}

// Companion guard in SizingMode::Wire, capturing the same seed build with
// byte-accurate frame sizing. Together with the nominal guard above it pins
// the full behaviour surface of the hot-path work (pooled allocation,
// pattern bitsets, flat caches): none of it may move a single RNG draw or
// reorder a single send in either mode.
TEST(Determinism, WireModeMatchesSeedReference) {
  struct Reference {
    Algorithm algorithm;
    std::uint64_t delivered_pairs, recovered_pairs, sim_events_executed,
        gossip_sends, event_sends, gossip_bytes, event_bytes;
    double delivery_rate;
  };
  // Re-captured together with the nominal pins above (same per-sender RNG
  // stream partition, same commit).
  const Reference refs[] = {
      {Algorithm::Push, 1356, 301, 19445, 2410, 3484, 109556, 776932,
       0x1.b769a3f839087p-1},
      {Algorithm::CombinedPull, 1332, 263, 16026, 674, 3582, 51313, 808817,
       0x1.afa2ac651a928p-1},
  };
  for (const Reference& ref : refs) {
    for (const auto& [shards, threads] :
         {std::pair{1u, 1u}, {4u, 1u}, {4u, 4u}}) {
      ScenarioConfig cfg = quick(ref.algorithm, 404);
      cfg.sizing_mode = SizingMode::Wire;
      cfg.shards = shards;
      cfg.threads = threads;
      const ScenarioResult r = run_scenario(cfg);
      SCOPED_TRACE(std::string(to_string(ref.algorithm)) + " shards=" +
                   std::to_string(shards) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(r.events_published, 2653u);
      EXPECT_EQ(r.expected_pairs, 1580u);
      EXPECT_EQ(r.delivered_pairs, ref.delivered_pairs);
      EXPECT_EQ(r.recovered_pairs, ref.recovered_pairs);
      EXPECT_EQ(r.sim_events_executed, ref.sim_events_executed);
      EXPECT_EQ(r.traffic.gossip_sends(), ref.gossip_sends);
      EXPECT_EQ(r.traffic.event_sends(), ref.event_sends);
      EXPECT_EQ(r.traffic.gossip_bytes(), ref.gossip_bytes);
      EXPECT_EQ(r.traffic.event_bytes(), ref.event_bytes);
      EXPECT_DOUBLE_EQ(r.delivery_rate, ref.delivery_rate);
    }
  }
}

TEST(Determinism, ShardingIsOptIn) {
  // The parallel engine only engages when asked: the default config (no
  // --shards flag) is serial, so every existing pin and published figure
  // runs the serial scheduler.
  EXPECT_EQ(ScenarioConfig{}.shards, 1u);
  EXPECT_EQ(ScenarioConfig::paper_defaults(Algorithm::Push).shards, 1u);
}

TEST(Determinism, EmptyFaultPlanAndRetryDefaultsAreInert) {
  // The chaos subsystem must be invisible when unused: the default config
  // carries an empty plan (no controller, no forked RNG streams — the seed
  // guards above pin the bit-identity) and request_timeout = 0 keeps every
  // retry counter at zero. Assert directly so a regression names the
  // culprit instead of showing up as a seed-guard mismatch.
  ScenarioConfig cfg = quick(Algorithm::CombinedPull, 404);
  EXPECT_TRUE(cfg.faults.empty());
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.fault.stats.crashes, 0u);
  EXPECT_EQ(r.fault.stats.burst_drops, 0u);
  EXPECT_EQ(r.fault.stats.partitions_applied, 0u);
  EXPECT_TRUE(r.fault.epochs.empty());
  EXPECT_DOUBLE_EQ(r.fault.last_heal_s, 0.0);
  EXPECT_EQ(r.gossip_totals.request_timeouts, 0u);
  EXPECT_EQ(r.gossip_totals.request_retries, 0u);
  EXPECT_EQ(r.gossip_totals.requests_abandoned, 0u);
}

TEST(Determinism, PoolModeDoesNotAffectResults) {
  // EPICAST_POOL only switches the allocator under the shared_ptrs; pooled
  // and pass-through builds must be bit-identical. (CI exercises the env
  // switch; here we compare the modes directly through the same scenario.)
  ScenarioConfig cfg = quick(Algorithm::Push, 404);
  // β above the run's event count: no buffer evicts anything.
  cfg.gossip.buffer_size = 10000;
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  expect_identical(a, b);
  // Pool counters are observability only, but they must be deterministic
  // too, and exact. The runner reads them after releasing the messages
  // still in flight at end time, so the live pooled objects are exactly
  // the events the retransmission buffers hold: with nothing evicted,
  // every event its publisher cached.
  EXPECT_GT(a.pool.allocations, 0u);
  EXPECT_EQ(a.pool.allocations, b.pool.allocations);
  EXPECT_EQ(a.pool.deallocations, b.pool.deallocations);
  EXPECT_EQ(a.pool.reuses, b.pool.reuses);
  EXPECT_EQ(a.pool.live(), a.events_published);
  // Seeds 1 and 2 end with messages in flight; the sharded engine
  // releases its mailboxes and lane heaps alike.
  for (const std::uint64_t seed : {1u, 2u}) {
    cfg.seed = seed;
    for (const std::uint32_t shards : {1u, 2u}) {
      cfg.shards = shards;
      const ScenarioResult r = run_scenario(cfg);
      EXPECT_EQ(r.pool.live(), r.events_published)
          << "seed " << seed << ", shards " << shards;
    }
  }
  // No buffers, nothing live.
  EXPECT_EQ(run_scenario(quick(Algorithm::NoRecovery, 2)).pool.live(), 0u);
}

TEST(Determinism, ProfilerTimingFlagDoesNotAffectResults) {
  // The hot-path profiler draws no randomness and sends no messages: runs
  // with and without nanosecond timing must be bit-identical, timing only
  // changes what the snapshot reports.
  ScenarioConfig off = quick(Algorithm::CombinedPull, 404);
  off.profile_hotpath = false;
  ScenarioConfig on = off;
  on.profile_hotpath = true;
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  expect_identical(a, b);
  // Op counts are always on and mode-independent...
  EXPECT_EQ(a.hotpath[HotPhase::Dispatch].ops, b.hotpath[HotPhase::Dispatch].ops);
  EXPECT_FALSE(a.hotpath.timed);
  EXPECT_TRUE(b.hotpath.timed);
  // ...while nanoseconds only accumulate when timing is enabled.
  EXPECT_EQ(a.hotpath[HotPhase::Dispatch].ns, 0u);
  EXPECT_GT(b.hotpath[HotPhase::Dispatch].ns, 0u);
}

TEST(Determinism, WireSizingRerunIsBitIdentical) {
  ScenarioConfig cfg = quick(Algorithm::CombinedPull, 404);
  cfg.sizing_mode = SizingMode::Wire;
  expect_identical(run_scenario(cfg), run_scenario(cfg));
}

TEST(Determinism, WireSizingChargesDifferentBytesThanNominal) {
  ScenarioConfig nominal = quick(Algorithm::Push, 404);
  nominal.sizing_mode = SizingMode::Nominal;
  ScenarioConfig wire = nominal;
  wire.sizing_mode = SizingMode::Wire;
  const ScenarioResult a = run_scenario(nominal);
  const ScenarioResult b = run_scenario(wire);
  // Messages flow in both modes and the byte accounting reflects the mode:
  // nominal charges the configured constants, wire the actual frames.
  EXPECT_GT(a.traffic.gossip_bytes(), 0u);
  EXPECT_GT(b.traffic.gossip_bytes(), 0u);
  EXPECT_NE(a.traffic.gossip_bytes(), b.traffic.gossip_bytes());
  EXPECT_NE(a.traffic.event_bytes(), b.traffic.event_bytes());
}

// The scheduler's slab recycles slots aggressively under cancel churn; the
// firing order must stay a pure function of the schedule/cancel sequence —
// FIFO at equal timestamps, regardless of which slots the survivors landed
// in.
TEST(Determinism, SchedulerOrderUnderCancelChurnIsReproducible) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Scheduler s;
    std::vector<std::uint64_t> fired;
    std::vector<EventHandle> handles;
    std::uint64_t next = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.chance(0.6) || handles.empty()) {
        const std::uint64_t id = next++;
        // Only 3 distinct timestamps: most events tie, stressing the FIFO
        // tie-break while slots are recycled underneath.
        handles.push_back(
            s.schedule_at(SimTime::seconds(1.0 + rng.next_below(3)),
                          [&fired, id] { fired.push_back(id); }));
      } else {
        handles[rng.next_below(handles.size())].cancel();
      }
    }
    s.run();
    return fired;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
}

TEST(Determinism, SchedulerFifoHoldsAfterMassCancellation) {
  // Cancel a large prefix scheduled at the same instant, then add more at
  // that instant: the survivors and late-comers fire strictly in
  // scheduling order.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> first_wave;
  for (int i = 0; i < 500; ++i) {
    first_wave.push_back(
        s.schedule_at(SimTime::seconds(2.0), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 400; ++i) EXPECT_TRUE(first_wave[i].cancel());
  for (int i = 500; i < 600; ++i) {
    s.schedule_at(SimTime::seconds(2.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  std::vector<int> expected;
  for (int i = 400; i < 600; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Determinism, SeedVarianceIsSmall) {
  // The paper (§IV-A) reports 1–2% variation across seeds and therefore
  // plots single runs. Verify the reproduction behaves the same way.
  double min_rate = 1.0, max_rate = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioConfig cfg = quick(Algorithm::CombinedPull, seed);
    cfg.nodes = 40;
    const double rate = run_scenario(cfg).delivery_rate;
    min_rate = std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  EXPECT_LT(max_rate - min_rate, 0.08);
}

}  // namespace
}  // namespace epicast
