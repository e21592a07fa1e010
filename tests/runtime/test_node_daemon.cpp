// In-process epicastd clusters: several NodeDaemons, each owning its own
// AsyncRuntime and UDP socket, run in parallel threads over localhost and
// must reproduce the delivery behaviour the simulation defines — complete
// delivery without loss, recovery-driven delivery under synthetic loss,
// with the conformance oracles live on every node.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "epicast/daemon/journal.hpp"
#include "epicast/daemon/node.hpp"
#include "epicast/runtime/cluster.hpp"

namespace epicast {
namespace {

/// Reserves `n` distinct free UDP ports by binding them all before
/// releasing any — the usual bind(0)/close trick, with the window between
/// close and the daemons' re-bind kept as small as possible.
std::vector<std::uint16_t> free_udp_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

/// A line cluster 0—1—…—(n-1): node 0 publishes, the tail node subscribes
/// to every pattern of a 1-pattern universe, so every event must reach it
/// across n-1 real UDP hops.
runtime::ClusterConfig line_cluster(std::uint32_t n, double drop_rate,
                                    double rate_hz, double run_s,
                                    double drain_s) {
  runtime::ClusterConfig cfg;
  const std::vector<std::uint16_t> ports = free_udp_ports(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cfg.endpoints.push_back({"127.0.0.1", ports[i]});
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    cfg.links.emplace_back(NodeId{i}, NodeId{i + 1});
  }
  cfg.pattern_universe = 1;
  cfg.patterns_per_event = 1;
  cfg.subscriptions.emplace_back(NodeId{n - 1}, Pattern{0});
  cfg.publishers = {NodeId{0}};
  cfg.publish_rate_hz = rate_hz;
  cfg.event_payload_bytes = 200;
  cfg.settle_seconds = 0.3;  // covers thread startup: all sockets bound
  cfg.run_seconds = run_s;
  cfg.drain_seconds = drain_s;
  cfg.drop_rate = drop_rate;
  cfg.seed = 42;
  return cfg;
}

/// Runs one daemon per node to completion, all in parallel.
void run_cluster(std::vector<std::unique_ptr<daemon::NodeDaemon>>& daemons) {
  std::vector<std::thread> threads;
  threads.reserve(daemons.size());
  for (auto& d : daemons) {
    threads.emplace_back([&d]() { d->run(); });
  }
  for (auto& t : threads) t.join();
}

TEST(NodeDaemon, LosslessLineClusterDeliversEverything) {
  runtime::ClusterConfig cfg =
      line_cluster(3, /*drop_rate=*/0.0, /*rate_hz=*/25.0,
                   /*run_s=*/1.0, /*drain_s=*/0.8);
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  for (std::uint32_t i = 0; i < 3; ++i) {
    daemons.push_back(
        std::make_unique<daemon::NodeDaemon>(cfg, NodeId{i}));
  }
  run_cluster(daemons);

  const auto& published = daemons[0]->published();
  const auto& delivered = daemons[2]->delivered();
  ASSERT_GT(published.size(), 0u) << "publisher generated no workload";

  std::set<std::uint64_t> delivered_seqs;
  for (const auto& d : delivered) {
    EXPECT_EQ(d.source, 0u);
    delivered_seqs.insert(d.seq);
  }
  // No loss, two real UDP hops: every published event reaches the
  // subscriber exactly once.
  EXPECT_EQ(delivered_seqs.size(), delivered.size()) << "duplicate delivery";
  for (const auto& p : published) {
    EXPECT_TRUE(delivered_seqs.count(p.seq))
        << "event " << p.seq << " never delivered";
  }

  // The middle node forwards but does not deliver (it has no subscription).
  EXPECT_TRUE(daemons[1]->delivered().empty());

  // Oracles were live on every node and saw traffic.
  for (const auto& d : daemons) {
    ASSERT_NE(d->oracles(), nullptr);
    EXPECT_GT(d->oracles()->checks(), 0u);
  }
}

TEST(NodeDaemon, LossyClusterRecoversViaCombinedPull) {
  runtime::ClusterConfig cfg =
      line_cluster(3, /*drop_rate=*/0.08, /*rate_hz=*/40.0,
                   /*run_s=*/1.2, /*drain_s=*/1.5);
  cfg.algorithm = Algorithm::CombinedPull;
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  for (std::uint32_t i = 0; i < 3; ++i) {
    daemons.push_back(
        std::make_unique<daemon::NodeDaemon>(cfg, NodeId{i}));
  }
  run_cluster(daemons);

  const auto& published = daemons[0]->published();
  const auto& delivered = daemons[2]->delivered();
  ASSERT_GT(published.size(), 10u);

  std::set<std::uint64_t> delivered_seqs;
  for (const auto& d : delivered) delivered_seqs.insert(d.seq);
  EXPECT_EQ(delivered_seqs.size(), delivered.size()) << "duplicate delivery";

  // With ε=8% per hop over two hops, raw delivery would be ≈0.85; pull
  // recovery must close most of the gap. The tail events of the run can be
  // undetectably lost (no later event reveals the gap), so the bound is
  // deliberately loose.
  const double delivery = static_cast<double>(delivered_seqs.size()) /
                          static_cast<double>(published.size());
  EXPECT_GE(delivery, 0.9) << delivered_seqs.size() << "/"
                           << published.size();

  // Loss actually happened and recovery actually ran — otherwise this test
  // proves nothing about the pull machinery over real sockets.
  std::uint64_t injected = 0;
  for (auto& d : daemons) injected += d->runtime().stats().drops_injected;
  EXPECT_GT(injected, 0u);
  const bool recovered_any =
      std::any_of(delivered.begin(), delivered.end(),
                  [](const auto& d) { return d.recovered; });
  if (delivery < 1.0 || injected > 0) {
    EXPECT_TRUE(recovered_any) << "loss injected but nothing recovered";
  }
}

TEST(NodeDaemon, StatsJsonCarriesTheAgreedKeys) {
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/30.0,
                   /*run_s=*/0.5, /*drain_s=*/0.3);
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}));
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}));
  run_cluster(daemons);

  for (const auto& d : daemons) {
    const std::string json = d->stats_json();
    for (const char* key :
         {"\"node\"", "\"algorithm\"", "\"subscriptions\"", "\"published\"",
          "\"delivered\"", "\"transport\"", "\"oracle_checks\"",
          "\"result\""}) {
      EXPECT_NE(json.find(key), std::string::npos)
          << "missing " << key << " in " << json.substr(0, 200);
    }
  }
}

// -- live subscription handling (tentpole: restart re-announce path) ----------

TEST(NodeDaemon, LiveSubscribeAndUnsubscribeOverTheWire) {
  // Three daemons, polled from this thread instead of run(): node 2 has no
  // configured subscription, subscribes mid-run (a real SubscribeMessage
  // flood over UDP), receives an event published at node 0, unsubscribes,
  // and stops receiving — the exact machinery a restarted daemon uses to
  // re-announce itself.
  runtime::ClusterConfig cfg =
      line_cluster(3, /*drop_rate=*/0.0, /*rate_hz=*/0.0,
                   /*run_s=*/5.0, /*drain_s=*/1.0);
  cfg.subscriptions = {{NodeId{1}, Pattern{0}}};  // node 2 starts cold
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  for (std::uint32_t i = 0; i < 3; ++i) {
    daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{i}));
  }
  auto poll_all = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& d : daemons) d->runtime().poll(Duration::millis(2));
    }
  };

  daemons[0]->dispatcher().publish({Pattern{0}});
  poll_all(20);
  EXPECT_EQ(daemons[2]->delivered().size(), 0u);

  daemons[2]->dispatcher().subscribe(Pattern{0});
  poll_all(20);  // sub flood: 2 → 1 → 0
  daemons[0]->dispatcher().publish({Pattern{0}});
  poll_all(20);
  ASSERT_EQ(daemons[2]->delivered().size(), 1u);
  EXPECT_EQ(daemons[2]->delivered()[0].source, 0u);

  daemons[2]->dispatcher().unsubscribe(Pattern{0});
  poll_all(20);
  daemons[0]->dispatcher().publish({Pattern{0}});
  poll_all(20);
  EXPECT_EQ(daemons[2]->delivered().size(), 1u)
      << "delivery after live unsubscribe";

  // The latency histogram saw the one delivery.
  EXPECT_EQ(daemons[2]->latency().count(), 1u);
}

// -- failure detection (tentpole) ---------------------------------------------

TEST(NodeDaemon, HeartbeatsFlowAndAreCounted) {
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/5.0,
                   /*run_s=*/0.8, /*drain_s=*/0.3);
  cfg.heartbeat_interval_ms = 50.0;
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}));
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}));
  run_cluster(daemons);

  for (auto& d : daemons) {
    ASSERT_NE(d->failure_detector(), nullptr);
    const auto& st = d->runtime().stats();
    EXPECT_GT(st.heartbeats_sent, 0u);
    EXPECT_GT(st.heartbeats_received, 0u);
    // Both peers lived: no suspicion, no deaths, no restarts observed.
    EXPECT_EQ(st.peers_suspected, 0u);
    EXPECT_EQ(st.peers_confirmed_dead, 0u);
    EXPECT_EQ(st.restarts_observed, 0u);
    const std::string json = d->stats_json();
    for (const char* key :
         {"\"heartbeats_sent\"", "\"heartbeats_received\"",
          "\"peers_suspected\"", "\"peers_confirmed_dead\"",
          "\"restarts_observed\"", "\"burst_drops\"", "\"blackhole_drops\"",
          "\"slowdown_delays\"", "\"incarnation\"", "\"restarted\"",
          "\"latency\""}) {
      EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
  }
}

TEST(NodeDaemon, HeartbeatZeroDisablesTheDetector) {
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/5.0,
                   /*run_s=*/0.4, /*drain_s=*/0.2);
  cfg.heartbeat_interval_ms = 0.0;
  daemon::NodeDaemon d(cfg, NodeId{0});
  EXPECT_EQ(d.failure_detector(), nullptr);
}

TEST(NodeDaemon, SilentPeerIsSuspectedThenConfirmedDead) {
  // Node 1 never runs: node 0's detector must walk the full escalation —
  // suspect after 3 missed beats, dead after 8 — against real silence.
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/0.0,
                   /*run_s=*/1.5, /*drain_s=*/0.2);
  cfg.heartbeat_interval_ms = 50.0;
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}));
  run_cluster(daemons);

  const auto& st = daemons[0]->runtime().stats();
  EXPECT_GE(st.peers_suspected, 1u);
  EXPECT_GE(st.peers_confirmed_dead, 1u);
  EXPECT_TRUE(daemons[0]->failure_detector()->confirmed_dead(NodeId{1}));
}

TEST(NodeDaemon, HeartbeatsCarryForwardedAndPreloadedMarks) {
  // Line 0—1—2; only node 2 subscribes, so node 1 forwards node 0's events
  // without delivering them. Node 1 is a warm restart whose cache snapshot
  // holds an event of a stream it never saw live. Its heartbeats to node 0
  // must carry both marks: a mark is knowledge, not stock.
  const std::string journal = testing::TempDir() +
                              "epicast_daemon_marks_" +
                              std::to_string(::getpid());
  std::remove(journal.c_str());
  runtime::ClusterConfig cfg =
      line_cluster(3, /*drop_rate=*/0.0, /*rate_hz=*/0.0,
                   /*run_s=*/5.0, /*drain_s=*/1.0);
  cfg.heartbeat_interval_ms = 20.0;
  daemon::DaemonOptions opts;
  opts.journal_path = journal;
  opts.restart_policy = fault::RestartPolicy::Warm;
  opts.cache_snapshot = true;
  // First life of node 1: journals one boot and is gone.
  (void)std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}, opts);
  const EventPtr snap = std::make_shared<EventData>(
      EventId{NodeId{2}, 0}, std::vector<PatternSeq>{{Pattern{5}, SeqNo{7}}},
      64, SimTime::zero());
  daemon::write_cache_snapshot(journal + ".cache", {snap});

  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}));
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}, opts));
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{2}));
  ASSERT_TRUE(daemons[1]->restarted());
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> heard;
  daemon::FailureDetector* fd0 = daemons[0]->failure_detector();
  ASSERT_NE(fd0, nullptr);
  daemons[0]->dispatcher().set_heartbeat_listener(
      [&heard, fd0](NodeId from, const HeartbeatMessage& hb) {
        if (from == NodeId{1}) {
          for (const StreamMark& m : hb.marks()) {
            heard.insert({m.source.value(), m.pattern.value(), m.seq.value()});
          }
        }
        fd0->on_heartbeat(from, hb);
      });
  // Polled from this thread instead of run(): start only the detectors.
  for (auto& d : daemons) d->failure_detector()->start();
  auto poll_all = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& d : daemons) d->runtime().poll(Duration::millis(2));
    }
  };
  for (int i = 0; i < 3; ++i) {
    (void)daemons[0]->dispatcher().publish({Pattern{0}});
  }
  const std::tuple<std::uint32_t, std::uint32_t, std::uint64_t> forwarded{
      0, 0, 3};
  const std::tuple<std::uint32_t, std::uint32_t, std::uint64_t> preloaded{
      2, 5, 7};
  for (int i = 0; i < 200 && !(heard.contains(forwarded) &&
                                heard.contains(preloaded));
       ++i) {
    poll_all(5);
  }
  EXPECT_EQ(daemons[2]->delivered().size(), 3u);
  EXPECT_TRUE(daemons[1]->delivered().empty());
  EXPECT_TRUE(heard.contains(forwarded)) << "forwarded stream not marked";
  EXPECT_TRUE(heard.contains(preloaded)) << "snapshot stream not marked";
  EXPECT_EQ(daemons[1]->failure_detector()->marks().size(), 2u);
  for (auto& d : daemons) d->failure_detector()->stop();
  std::remove(journal.c_str());
  std::remove((journal + ".cache").c_str());
}

TEST(NodeDaemon, NoRecoveryHeartbeatsCarryNoMarks) {
  // Without a recovery protocol nothing acts on marks: beats stay pure
  // liveness beacons and the witnessed table stays empty.
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/0.0,
                   /*run_s=*/5.0, /*drain_s=*/1.0);
  cfg.heartbeat_interval_ms = 20.0;
  cfg.algorithm = Algorithm::NoRecovery;
  cfg.subscriptions = {{NodeId{0}, Pattern{0}}, {NodeId{1}, Pattern{0}}};
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}));
  daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}));
  std::size_t beats = 0;
  std::size_t marks = 0;
  daemon::FailureDetector* fd1 = daemons[1]->failure_detector();
  daemons[1]->dispatcher().set_heartbeat_listener(
      [&, fd1](NodeId from, const HeartbeatMessage& hb) {
        ++beats;
        marks += hb.marks().size();
        fd1->on_heartbeat(from, hb);
      });
  for (auto& d : daemons) d->failure_detector()->start();
  (void)daemons[0]->dispatcher().publish({Pattern{0}});
  for (int i = 0; i < 200 && beats < 3; ++i) {
    for (auto& d : daemons) d->runtime().poll(Duration::millis(2));
  }
  EXPECT_GE(beats, 3u);
  EXPECT_EQ(marks, 0u);
  EXPECT_EQ(daemons[1]->delivered().size(), 1u);
  EXPECT_EQ(daemons[0]->failure_detector()->marks().size(), 0u);
  for (auto& d : daemons) d->failure_detector()->stop();
}

// -- crash-restart recovery (tentpole) ----------------------------------------

TEST(NodeDaemon, JournalReplayRestoresStateAcrossRestart) {
  const std::string journal =
      testing::TempDir() + "epicast_daemon_journal_" +
      std::to_string(::getpid());
  std::remove(journal.c_str());

  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/30.0,
                   /*run_s=*/0.6, /*drain_s=*/0.3);
  daemon::DaemonOptions opts;
  opts.journal_path = journal;

  std::size_t first_life_published = 0;
  std::size_t first_life_delivered = 0;
  {
    std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
    daemons.push_back(
        std::make_unique<daemon::NodeDaemon>(cfg, NodeId{0}, opts));
    daemons.push_back(std::make_unique<daemon::NodeDaemon>(cfg, NodeId{1}));
    run_cluster(daemons);
    EXPECT_EQ(daemons[0]->incarnation(), 1u);
    EXPECT_FALSE(daemons[0]->restarted());
    first_life_published = daemons[0]->published().size();
    first_life_delivered = daemons[0]->delivered().size();
    ASSERT_GT(first_life_published, 0u);
  }

  // Second incarnation: same journal, fresh process state. The replay must
  // restore the cumulative logs, the boot count, and the id sequence — the
  // next publish continues where the first life stopped.
  daemon::NodeDaemon reborn(cfg, NodeId{0}, opts);
  EXPECT_EQ(reborn.incarnation(), 2u);
  EXPECT_TRUE(reborn.restarted());
  EXPECT_EQ(reborn.published().size(), first_life_published);
  EXPECT_EQ(reborn.delivered().size(), first_life_delivered);
  const EventPtr next = reborn.dispatcher().publish({Pattern{0}});
  EXPECT_EQ(next->id().source_seq, first_life_published);
  // Replayed ids are marked seen: a re-gossiped copy of a first-life event
  // is a duplicate, not a second delivery (the unique-delivery oracle
  // stays true across the crash).
  EXPECT_TRUE(reborn.dispatcher().has_seen(EventId{NodeId{0}, 0}));

  std::remove(journal.c_str());
  std::remove((journal + ".cache").c_str());
}

TEST(NodeDaemon, StopFlagEndsTheRunEarly) {
  runtime::ClusterConfig cfg =
      line_cluster(2, /*drop_rate=*/0.0, /*rate_hz=*/5.0,
                   /*run_s=*/30.0, /*drain_s=*/30.0);  // would run a minute
  daemon::NodeDaemon d(cfg, NodeId{0});
  volatile std::sig_atomic_t stop = 0;
  std::thread stopper([&stop]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop = 1;
  });
  const auto t0 = std::chrono::steady_clock::now();
  d.run(&stop);
  stopper.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // A stopped daemon still produces a coherent stats document.
  EXPECT_NE(d.stats_json().find("\"node\""), std::string::npos);
}

}  // namespace
}  // namespace epicast
