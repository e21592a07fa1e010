// The witnessed stream watermarks that daemon heartbeats carry
// (daemon::WitnessedMarks), fed through the dispatcher's accept listener
// the way NodeDaemon feeds them. The end-to-end path over real sockets is
// in tests/runtime/test_node_daemon.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "epicast/daemon/failure_detector.hpp"
#include "gossip_harness.hpp"

namespace epicast {
namespace {

using testing::GossipHarness;

/// Feeds `marks` from every event `node` accepts.
void witness_at(GossipHarness& h, std::uint32_t node,
                daemon::WitnessedMarks& marks) {
  h.net().node(NodeId{node}).set_accept_listener(
      [&marks](const EventPtr& e) { marks.note(*e); });
}

TEST(WitnessedMarks, RotateThroughTheWitnessedTable) {
  GossipHarness h(3, Algorithm::SubscriberPull);
  daemon::WitnessedMarks marks;
  witness_at(h, 1, marks);
  h.subscribe_and_settle({{0, 1}, {0, 2}, {2, 1}, {2, 2}});
  auto& pub = h.net().node(NodeId{0});
  (void)pub.publish({Pattern{1}});
  (void)pub.publish({Pattern{2}});
  h.run_for(0.1);
  // Node 1 forwarded both events; its witnessed table covers both streams
  // even though it subscribes to neither (a mark is knowledge, not stock).
  ASSERT_EQ(marks.size(), 2u);
  std::vector<StreamMark> out;
  marks.next_slice(1, out);
  ASSERT_EQ(out.size(), 1u);
  marks.next_slice(1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].pattern, out[1].pattern);
  EXPECT_EQ(out[0].source, NodeId{0});
  // The rotation wraps to the first stream.
  marks.next_slice(1, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], out[0]);
  // Asking for more than exists yields each entry exactly once.
  out.clear();
  marks.next_slice(99, out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].pattern, out[1].pattern);
}

TEST(WitnessedMarks, GoOutOncePerCycleAsStreamsAppear) {
  // Heartbeats carry a rotating slice of the witnessed table. New streams
  // appear between beats — here in descending pattern order, so a table
  // ordered by key would slide its entries under the cursor — and still
  // every stream goes out exactly once per cycle: a cycle closes at the
  // first repeat, by which time every stream known at its start was sent.
  GossipHarness h(3, Algorithm::SubscriberPull);
  daemon::WitnessedMarks marks;
  witness_at(h, 1, marks);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> subs;
  for (std::uint32_t p = 1; p <= 9; ++p) subs.push_back({2, p});
  h.subscribe_and_settle(subs);
  auto& pub = h.net().node(NodeId{0});
  std::map<std::uint32_t, std::uint64_t> published;  // pattern -> last seq
  const auto publish = [&](std::uint32_t p) {
    (void)pub.publish({Pattern{p}});
    ++published[p];
    h.run_for(0.05);
  };
  publish(9);
  publish(8);

  std::set<std::uint32_t> cycle_start = {8, 9};
  std::set<std::uint32_t> this_cycle;
  std::size_t cycles = 0;
  std::uint32_t next_new = 7;
  std::vector<StreamMark> out;
  for (int beat = 0; beat < 30; ++beat) {
    out.clear();
    marks.next_slice(2, out);
    for (const StreamMark& m : out) {
      EXPECT_EQ(m.source, NodeId{0});
      if (this_cycle.contains(m.pattern.value())) {
        EXPECT_TRUE(std::includes(this_cycle.begin(), this_cycle.end(),
                                  cycle_start.begin(), cycle_start.end()))
            << "beat " << beat << ": a stream was skipped";
        ++cycles;
        this_cycle.clear();
        for (const auto& [p, seq] : published) cycle_start.insert(p);
      }
      this_cycle.insert(m.pattern.value());
    }
    if (beat % 2 == 0 && next_new >= 1) publish(next_new--);
    if (beat % 3 == 0) publish(9);  // an old stream advances
  }
  EXPECT_GE(cycles, 4u);

  // One call with room for everything sends each stream once, carrying
  // its highest witnessed seq.
  out.clear();
  marks.next_slice(99, out);
  ASSERT_EQ(out.size(), published.size());
  std::map<std::uint32_t, std::uint64_t> got;
  for (const StreamMark& m : out) got[m.pattern.value()] = m.seq.value();
  EXPECT_EQ(got, published);
}

TEST(WitnessedMarks, RecoveredEventsCountAndMarksNeverMoveBack) {
  // A late (recovered) event below the mark leaves it alone; a recovered
  // event above it advances it, like any other accepted event.
  GossipHarness h(3, Algorithm::SubscriberPull);
  daemon::WitnessedMarks marks;
  witness_at(h, 2, marks);
  h.subscribe_and_settle({{2, 1}});
  const auto event = [](std::uint64_t seq) {
    return std::make_shared<EventData>(
        EventId{NodeId{0}, seq},
        std::vector<PatternSeq>{{Pattern{1}, SeqNo{seq}}}, 64,
        SimTime::zero());
  };
  Dispatcher& d = h.net().node(NodeId{2});
  ASSERT_TRUE(d.accept_recovered(event(5)));
  ASSERT_TRUE(d.accept_recovered(event(3)));
  std::vector<StreamMark> out;
  marks.next_slice(8, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (StreamMark{NodeId{0}, Pattern{1}, SeqNo{5}}));
  ASSERT_TRUE(d.accept_recovered(event(9)));
  out.clear();
  marks.next_slice(8, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, SeqNo{9});
}

TEST(WitnessedMarks, EmptyTableSendsNothing) {
  daemon::WitnessedMarks marks;
  std::vector<StreamMark> out;
  marks.next_slice(64, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(marks.size(), 0u);
}

}  // namespace
}  // namespace epicast
