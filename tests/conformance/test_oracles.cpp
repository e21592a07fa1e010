// Conformance tier — the oracle layer's own tests.
//
// Two obligations, per ISSUE: (a) every oracle demonstrably *fires* when
// fed a deliberate violation (FailMode::Record suites driven through the
// public hooks and verify_* seams), and (b) the suite is wired into
// run_scenario and performs a non-zero number of checks in real runs —
// and none when disabled.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../gossip_harness.hpp"
#include "epicast/epicast.hpp"

namespace {

using namespace epicast;
using epicast::oracle::BufferBoundOracle;
using epicast::oracle::ConservationOracle;
using epicast::oracle::DigestCoverageOracle;
using epicast::oracle::FailMode;
using epicast::oracle::MatchingDeliveryOracle;
using epicast::oracle::OracleContext;
using epicast::oracle::OracleSuite;
using epicast::oracle::UniqueDeliveryOracle;
using epicast::oracle::WireRoundTripOracle;
using GossipHarness = epicast::testing::GossipHarness;

EventPtr make_event(std::uint32_t source, std::uint64_t seq,
                    std::uint32_t pattern = 1) {
  return std::make_shared<const EventData>(
      EventId{NodeId{source}, seq},
      std::vector<PatternSeq>{{Pattern{pattern}, SeqNo{seq}}},
      /*payload_bytes=*/64, SimTime::zero());
}

/// A Record-mode suite with no live scenario behind it — hooks are driven
/// by hand. The context may carry a harness's sim/network when the oracle
/// under test needs them.
std::unique_ptr<OracleSuite> record_suite(OracleContext ctx = {}) {
  return std::make_unique<OracleSuite>(ctx, FailMode::Record);
}

TEST(UniqueDeliveryOracleTest, FiresOnDuplicateDelivery) {
  auto suite = record_suite();
  suite->add(std::make_unique<UniqueDeliveryOracle>());

  const EventPtr e = make_event(0, 1);
  suite->notify_delivery(NodeId{3}, e, false);
  EXPECT_TRUE(suite->violations().empty());
  suite->notify_delivery(NodeId{4}, e, false);  // other node: still fine
  EXPECT_TRUE(suite->violations().empty());

  suite->notify_delivery(NodeId{3}, e, false);  // same (event, node) again
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "unique-delivery");
  EXPECT_EQ(suite->violations()[0].node, NodeId{3});
  EXPECT_GT(suite->checks(), 0u);
}

TEST(UniqueDeliveryOracleTest, KeysPairsExactlyPerNode) {
  // The pairs live in one flat set of exact event ids per node, grown to
  // the highest node id seen. A duplicate at the highest id fires; ids
  // that differ only in high bits, or that a packed key would fold
  // together, are distinct events.
  auto suite = record_suite();
  suite->add(std::make_unique<UniqueDeliveryOracle>());
  const EventPtr e = make_event(0, 7);
  const EventPtr high_seq = make_event(0, 7 | (std::uint64_t{1} << 40));
  const EventPtr high_source = make_event(1u << 31, 7);
  const NodeId top{4095};
  for (const NodeId n : {NodeId{0}, NodeId{3}, top}) {
    suite->notify_delivery(n, e, false);
    suite->notify_delivery(n, high_seq, false);
    suite->notify_delivery(n, high_source, false);
  }
  EXPECT_TRUE(suite->violations().empty());
  suite->notify_delivery(top, high_seq, false);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].node, top);
  // Growing the table to a higher id kept the lower ids' sets.
  suite->notify_delivery(NodeId{3}, e, false);
  ASSERT_EQ(suite->violations().size(), 2u);
  EXPECT_EQ(suite->violations()[1].node, NodeId{3});
  EXPECT_EQ(suite->checks(), 11u);
}

TEST(MatchingDeliveryOracleTest, FiresOnDeliveryToNonSubscriber) {
  // A real 3-node network: node 2 subscribes to pattern 1, node 1 to
  // nothing. The oracle consults the live subscription tables.
  GossipHarness h(3, Algorithm::NoRecovery);
  h.subscribe_and_settle({{2, 1}});

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<MatchingDeliveryOracle>());

  const EventPtr e = make_event(0, 1, /*pattern=*/1);
  suite->notify_delivery(NodeId{2}, e, false);  // subscribed: fine
  EXPECT_TRUE(suite->violations().empty());

  suite->notify_delivery(NodeId{1}, e, false);  // not subscribed
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "matching-delivery");
  EXPECT_EQ(suite->violations()[0].node, NodeId{1});
}

TEST(ConservationOracleTest, FiresOnUnpublishedDelivery) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  // Delivered at node 5 (not the source), never published.
  suite->notify_delivery(NodeId{5}, e, false);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "conservation");
}

TEST(ConservationOracleTest, FiresOnRecoveredDeliveryWithoutReply) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "conservation");
  EXPECT_EQ(suite->violations()[0].node, NodeId{5});
}

TEST(ConservationOracleTest, AcceptsRecoveredDeliveryAfterReply) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());

  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  const RecoveryReplyMessage reply(NodeId{1}, /*nominal_bytes=*/100, {e});
  suite->on_send(NodeId{1}, NodeId{5}, reply, /*overlay=*/false);
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  EXPECT_TRUE(suite->violations().empty());
}

TEST(ConservationOracleTest, FiresOnUnpublishedIdDifferingInHighBits) {
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());
  suite->notify_publish(make_event(0, 7));
  suite->notify_delivery(NodeId{5}, make_event(0, 7), false);
  EXPECT_TRUE(suite->violations().empty());
  // Same low 32 bits of the sequence number, and a source/seq mix that
  // hashes alike: neither was published.
  suite->notify_delivery(NodeId{5},
                         make_event(0, 7 | (std::uint64_t{1} << 32)), false);
  suite->notify_delivery(NodeId{5},
                         make_event(1, 7 | (std::uint64_t{1} << 40)), false);
  ASSERT_EQ(suite->violations().size(), 2u);
  for (const auto& v : suite->violations()) {
    EXPECT_NE(v.detail.find("unpublished"), std::string::npos) << v.detail;
  }
}

TEST(ConservationOracleTest, FiresOnRecoveredDeliveryToAnotherNode) {
  // The reply offered the event to node 5; a recovered delivery of it at
  // node 6 has no retransmission behind it.
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());
  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  const RecoveryReplyMessage reply(NodeId{1}, /*nominal_bytes=*/100, {e});
  suite->on_send(NodeId{1}, NodeId{5}, reply, /*overlay=*/false);
  suite->notify_delivery(NodeId{6}, e, /*recovered=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].node, NodeId{6});
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  EXPECT_EQ(suite->violations().size(), 1u);
}

TEST(ConservationOracleTest, IgnoresSendsOfOtherClasses) {
  // Only reply-class sends offer events: an event message carrying the
  // same event to node 5 does not license a recovered delivery there.
  auto suite = record_suite();
  suite->add(std::make_unique<ConservationOracle>());
  const EventPtr e = make_event(0, 7);
  suite->notify_publish(e);
  const EventMessage forward(e, {});
  suite->on_send(NodeId{1}, NodeId{5}, forward, /*overlay=*/true);
  EXPECT_EQ(suite->checks(), 0u);
  suite->notify_delivery(NodeId{5}, e, /*recovered=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
}

TEST(BufferBoundOracleTest, FiresOnOccupancyAboveBeta) {
  auto suite = record_suite();
  auto* oracle = new BufferBoundOracle();
  suite->add(std::unique_ptr<BufferBoundOracle>(oracle));

  oracle->verify_occupancy(NodeId{2}, /*size=*/4, /*capacity=*/4);
  EXPECT_TRUE(suite->violations().empty());
  oracle->verify_occupancy(NodeId{2}, /*size=*/5, /*capacity=*/4);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "buffer-bound");
  EXPECT_EQ(suite->violations()[0].node, NodeId{2});
}

TEST(DigestCoverageOracleTest, FiresOnDigestOfUnbufferedEvent) {
  // Node 0 runs a real push protocol and caches its own publish; a forged
  // originated digest claiming a never-published id must fire.
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  const EventPtr e = h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.1);
  ASSERT_TRUE(h.protocol(0)->cache().contains(e->id()));

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<DigestCoverageOracle>());

  const PushDigestMessage honest(NodeId{0}, 100, Pattern{1}, {e->id()},
                                 /*hops=*/0);
  suite->on_send(NodeId{0}, NodeId{1}, honest, /*overlay=*/true);
  EXPECT_TRUE(suite->violations().empty());

  const EventId bogus{NodeId{0}, 999};
  const PushDigestMessage forged(NodeId{0}, 100, Pattern{1}, {bogus},
                                 /*hops=*/0);
  // A *forwarded* copy (hops > 0) is exempt: the ids are the originator's.
  const PushDigestMessage forwarded(NodeId{0}, 100, Pattern{1}, {bogus},
                                    /*hops=*/1);
  suite->on_send(NodeId{1}, NodeId{2}, forwarded, /*overlay=*/true);
  EXPECT_TRUE(suite->violations().empty());

  suite->on_send(NodeId{0}, NodeId{1}, forged, /*overlay=*/true);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "digest-coverage");
  EXPECT_EQ(suite->violations()[0].node, NodeId{0});
}

TEST(DigestCoverageOracleTest, FiresOnReplyOfUnbufferedEvent) {
  GossipHarness h(3, Algorithm::Push);
  h.subscribe_and_settle({{0, 1}, {2, 1}});
  h.net().node(NodeId{0}).publish({Pattern{1}});
  h.run_for(0.1);

  auto suite = record_suite({&h.sim(), &h.net(), SizingMode::Nominal});
  suite->add(std::make_unique<DigestCoverageOracle>());

  // A reply carrying an event the sender never buffered (it was "served"
  // by node 1, a mere router with an empty cache).
  const EventPtr foreign = make_event(0, 999);
  const RecoveryReplyMessage reply(NodeId{1}, 100, {foreign});
  suite->on_send(NodeId{1}, NodeId{2}, reply, /*overlay=*/false);
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "digest-coverage");
}

TEST(WireRoundTripOracleTest, PassesOnHonestFrameAndFiresOnCorruptBytes) {
  auto suite = record_suite({nullptr, nullptr, SizingMode::Wire});
  auto* oracle = new WireRoundTripOracle();
  suite->add(std::unique_ptr<WireRoundTripOracle>(oracle));

  const RecoveryRequestMessage req(NodeId{3}, 100,
                                   {EventId{NodeId{1}, 4}});
  oracle->verify_frame(NodeId{3}, req);
  EXPECT_TRUE(suite->violations().empty());
  EXPECT_GT(suite->checks(), 0u);

  // Truncate the honest frame: decode must fail and the oracle must fire.
  wire::WireBuffer buf;
  wire::Codec::encode(req, buf);
  const auto frame = buf.bytes();
  oracle->verify_bytes(NodeId{3}, frame.subspan(0, frame.size() - 1));
  ASSERT_EQ(suite->violations().size(), 1u);
  EXPECT_EQ(suite->violations()[0].oracle, "wire-round-trip");
  EXPECT_EQ(suite->violations()[0].node, NodeId{3});
}

// -- wiring into run_scenario -------------------------------------------------

ScenarioConfig small_scenario(SizingMode mode) {
  ScenarioConfig cfg = ScenarioConfig::paper_defaults(Algorithm::CombinedPull);
  cfg.nodes = 16;
  cfg.warmup = Duration::seconds(0.5);
  cfg.measure = Duration::seconds(0.5);
  cfg.seed = 7;
  cfg.sizing_mode = mode;
  return cfg;
}

TEST(OracleSuiteWiring, EveryScenarioRunsWithActiveOracles) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  ASSERT_TRUE(cfg.oracles) << "oracles must default on in tests";
  const ScenarioResult r = run_scenario(cfg);
  // Millions of sim events, thousands of deliveries: the six oracles must
  // have checked plenty — and aborted nothing (we got here).
  EXPECT_GT(r.oracle_checks, 1000u);
}

TEST(OracleSuiteWiring, WireModeExercisesRoundTripOracle) {
  const ScenarioResult nominal = run_scenario(small_scenario(SizingMode::Nominal));
  const ScenarioResult wire = run_scenario(small_scenario(SizingMode::Wire));
  // The wire-round-trip oracle only checks under SizingMode::Wire, so the
  // wire run performs strictly more checks on the same traffic.
  EXPECT_GT(wire.oracle_checks, nominal.oracle_checks);
}

TEST(OracleSuiteWiring, DisabledScenarioPerformsNoChecks) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  cfg.oracles = false;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.oracle_checks, 0u);
}

TEST(OracleSuiteWiring, DisabledScenarioIsBitIdentical) {
  ScenarioConfig cfg = small_scenario(SizingMode::Nominal);
  const ScenarioResult with = run_scenario(cfg);
  cfg.oracles = false;
  const ScenarioResult without = run_scenario(cfg);
  // Oracles are pure observers: enabling them cannot change the run.
  EXPECT_EQ(with.sim_events_executed, without.sim_events_executed);
  EXPECT_EQ(with.delivered_pairs, without.delivered_pairs);
  EXPECT_EQ(with.expected_pairs, without.expected_pairs);
  EXPECT_EQ(with.delivery_rate, without.delivery_rate);
}

TEST(OracleSuiteWiring, DefaultSuiteHasSixOracles) {
  OracleSuite suite({}, FailMode::Record);
  oracle::add_default_oracles(suite);
  EXPECT_EQ(suite.oracle_count(), 6u);
}

}  // namespace
