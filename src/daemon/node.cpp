#include "epicast/daemon/node.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/gossip/protocol.hpp"
#include "epicast/gossip/pull_base.hpp"
#include "epicast/metrics/result_json.hpp"

namespace epicast::daemon {

NodeDaemon::NodeDaemon(runtime::ClusterConfig cluster, NodeId self,
                       DaemonOptions opts)
    : cluster_(std::move(cluster)),
      self_(self),
      opts_(std::move(opts)),
      universe_(cluster_.pattern_universe),
      // Workload stream decoupled from the runtime's forks; offset by the
      // node id so no two daemons publish in lock-step.
      pub_rng_(cluster_.seed * 0x9e3779b97f4a7c15ULL + self_.value()) {
  cluster_.validate();
  EPICAST_ASSERT_MSG(self_.value() < cluster_.node_count(),
                     "--node-id outside the cluster");

  if (!opts_.journal_path.empty()) {
    journal_ = std::make_unique<Journal>(opts_.journal_path);
    incarnation_ = journal_->replay().boots + 1;
    restarted_ = journal_->replay().boots > 0;
  }

  // Daemon-mode default: retry hardening on (3× the gossip interval) unless
  // the config said otherwise. Real links time out; a daemon that never
  // retries a lost pull request leaks losses the simulator's defaults were
  // never meant to model. The simulator's own default stays off — the
  // determinism seed guards pin fault-free sim results bit-exactly.
  if (!cluster_.request_timeout_set &&
      cluster_.gossip.request_timeout == Duration::zero()) {
    cluster_.gossip.request_timeout = cluster_.gossip.interval * 3;
  }

  runtime::AsyncRuntimeConfig rc;
  rc.seed = cluster_.seed + self_.value();
  rc.sizing = cluster_.sizing;  // != Wire throws std::invalid_argument here
  rc.inbound_queue_capacity = cluster_.queue_capacity;
  rc.inbound_drop_rate = cluster_.drop_rate;
  rc.faults = cluster_.faults;
  rc.fault_origin_s = cluster_.settle_seconds;  // plan times ~ publish_start
  rc.fault_seed = cluster_.seed;  // cluster-wide: blackhole choices agree
  rc.clock_epoch_ns = cluster_.clock_epoch_ns;
  rt_ = std::make_unique<runtime::AsyncRuntime>(rc);

  for (std::uint32_t i = 0; i < cluster_.node_count(); ++i) {
    rt_->set_peer(NodeId{i}, cluster_.endpoints[i]);
  }
  for (const auto& [a, b] : cluster_.links) rt_->add_link(a, b);

  if (cluster_.oracles) {
    // The daemon sees no Simulator and no PubSubNetwork; the suite's
    // context-free oracles still hold over real traffic. Abort mode: a
    // violated safety property should kill the node visibly, not skew the
    // harness's delivery numbers silently.
    oracles_ = std::make_unique<oracle::OracleSuite>(
        oracle::OracleContext{nullptr, nullptr, cluster_.sizing},
        oracle::FailMode::Abort);
    oracles_->add(std::make_unique<oracle::UniqueDeliveryOracle>());
    auto wire = std::make_unique<oracle::WireRoundTripOracle>();
    wire_oracle_ = wire.get();
    oracles_->add(std::move(wire));
    rt_->add_observer(*oracles_);
  }
  // Receive side: every accepted frame must round-trip bit-exactly, and
  // any frame from a peer proves its process is alive.
  rt_->set_frame_observer([this](NodeId from, NodeId to, bool,
                                 std::span<const std::uint8_t> frame,
                                 const MessagePtr&) {
    if (wire_oracle_ != nullptr) wire_oracle_->verify_bytes(to, frame);
    if (failure_detector_ != nullptr) failure_detector_->note_traffic(from);
  });

  DispatcherConfig dc;
  dc.default_payload_bytes = cluster_.event_payload_bytes;
  dc.record_routes = algorithm_needs_routes(cluster_.algorithm);
  dispatcher_ = std::make_unique<Dispatcher>(self_, *rt_, dc);

  dispatcher_->set_delivery_listener(
      [this](NodeId node, const EventPtr& event, bool recovered) {
        if (oracles_ != nullptr) {
          oracles_->notify_delivery(node, event, recovered);
        }
        const SimTime now = rt_->now();
        delivered_.push_back(DeliveryRecord{event->source().value(),
                                            event->id().source_seq,
                                            now.to_seconds(), recovered});
        // published_at rides inside the event frame; on a shared clock
        // epoch (epoch-ns) this is a cross-process publish→deliver time.
        latency_.record((now - event->published_at()).count_nanos());
        if (journal_ != nullptr) {
          journal_->log_delivery(Journal::DeliveryEntry{
              event->source().value(), event->id().source_seq,
              now.to_seconds(), recovered});
        }
      });

  for (const auto& [node, p] : cluster_.subscriptions) {
    if (node == self_) dispatcher_->subscribe_local(p);
  }
  install_routes();

  dispatcher_->set_recovery(
      make_recovery(cluster_.algorithm, *dispatcher_, cluster_.gossip));

  if (cluster_.heartbeat_interval_ms > 0.0) {
    FailureDetectorConfig fc;
    fc.interval = Duration::seconds(cluster_.heartbeat_interval_ms * 1e-3);
    fc.incarnation = incarnation_;
    // Without a recovery protocol nothing acts on watermarks: heartbeats
    // stay pure liveness beacons.
    if (cluster_.algorithm == Algorithm::NoRecovery) fc.marks_per_beat = 0;
    failure_detector_ =
        std::make_unique<FailureDetector>(*dispatcher_, *rt_, fc);
    dispatcher_->set_heartbeat_listener(
        [this](NodeId from, const HeartbeatMessage& hb) {
          failure_detector_->on_heartbeat(from, hb);
        });
    dispatcher_->set_accept_listener([this](const EventPtr& event) {
      failure_detector_->witness(*event);
    });
    failure_detector_->set_on_peer_dead(
        [this](NodeId dead) { repair_routes_around(dead); });
    failure_detector_->set_on_peer_returned(
        [this](NodeId back) { restore_links_of(back); });
  }

  replay_journal();
  if (journal_ != nullptr) {
    journal_->log_boot(incarnation_, opts_.restart_policy);
  }

  publish_start_ = SimTime::seconds(cluster_.settle_seconds);
  publish_end_ = publish_start_ + Duration::seconds(cluster_.run_seconds);
  drain_end_ = publish_end_ + Duration::seconds(cluster_.drain_seconds);
}

void NodeDaemon::replay_journal() {
  if (journal_ == nullptr || !restarted_) return;
  const Journal::Replay& rp = journal_->replay();
  std::uint64_t next_seq = 0;
  std::unordered_map<Pattern, std::uint64_t> pattern_seq;
  for (const Journal::PublishEntry& p : rp.publishes) {
    published_.push_back(PublishRecord{p.seq, p.t_s, p.patterns});
    next_seq = std::max(next_seq, p.seq + 1);
    for (const std::uint32_t pat : p.patterns) ++pattern_seq[Pattern{pat}];
    // Our own prior publishes must never be re-accepted as fresh events.
    dispatcher_->note_seen(EventId{self_, p.seq});
  }
  for (const Journal::DeliveryEntry& d : rp.deliveries) {
    delivered_.push_back(DeliveryRecord{d.source, d.seq, d.t_s, d.recovered});
    // Re-gossiped copies of events delivered in a previous incarnation are
    // duplicates, not deliveries — this keeps the unique-delivery oracle
    // true across the crash.
    dispatcher_->note_seen(EventId{NodeId{d.source}, d.seq});
  }
  dispatcher_->restore_sequences(next_seq, pattern_seq);
  dispatcher_->recovery()->on_restart(opts_.restart_policy);
  if (opts_.restart_policy == fault::RestartPolicy::Warm &&
      opts_.cache_snapshot) {
    const std::vector<EventPtr> events =
        read_cache_snapshot(opts_.journal_path + ".cache");
    dispatcher_->recovery()->preload_cache(events);
    if (failure_detector_ != nullptr) {
      for (const EventPtr& e : events) failure_detector_->witness(*e);
    }
  }
}

void NodeDaemon::repair_routes_around(NodeId dead) {
  // Our side of the Reconfigurator handshake, driven by the failure
  // detector instead of a scripted topology change: drop every link into
  // the corpse, retract routes through it, then stitch its (statically
  // known) neighbours into a chain so the overlay stays connected. The
  // chain is computed from the shared config alone — every surviving
  // neighbour derives the same detour without a coordination round.
  std::vector<NodeId> around;
  for (const auto& [a, b] : cluster_.links) {
    if (a == dead) around.push_back(b);
    if (b == dead) around.push_back(a);
  }
  std::sort(around.begin(), around.end());
  around.erase(std::unique(around.begin(), around.end()), around.end());

  for (const NodeId n : around) rt_->remove_link(dead, n);
  dispatcher_->handle_link_break(dead);

  for (std::size_t i = 0; i + 1 < around.size(); ++i) {
    const NodeId u = around[i];
    const NodeId v = around[i + 1];
    if (rt_->has_link(u, v)) continue;
    rt_->add_link(u, v);
    if (u == self_) dispatcher_->handle_link_add(v);
    if (v == self_) dispatcher_->handle_link_add(u);
  }
}

void NodeDaemon::restore_links_of(NodeId returned) {
  // The peer is back (incarnation jump or fresh heartbeat after death):
  // re-attach its configured links and re-advertise our subscriptions
  // across them. Detour links stay — redundant edges only give the
  // dispatching tree duplicate suppression more to do.
  for (const auto& [a, b] : cluster_.links) {
    if (a != returned && b != returned) continue;
    if (!rt_->has_link(a, b)) rt_->add_link(a, b);
    const NodeId other = a == returned ? b : a;
    if (other == self_) dispatcher_->handle_link_add(returned);
  }
}

void NodeDaemon::write_snapshot() {
  const EventCache* c = dispatcher_->recovery()->event_cache();
  if (c == nullptr) return;
  write_cache_snapshot(opts_.journal_path + ".cache", c->snapshot_events());
}

void NodeDaemon::install_routes() {
  // The cluster-wide routing oracle, mirrored from
  // PubSubNetwork::compute_oracle()/rebuild_routes(): one BFS per
  // subscriber; every node routes the subscriber's patterns towards its
  // BFS predecessor. Only self's rows are installed here, plus the
  // duplicate-suppression marks for neighbours that route *through* self.
  const std::uint32_t n = cluster_.node_count();
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [a, b] : cluster_.links) {
    adj[a.value()].push_back(b);
    adj[b.value()].push_back(a);
  }
  std::vector<PatternSet> local(n);
  for (const auto& [node, p] : cluster_.subscriptions) {
    local[node.value()].set(p);
  }

  std::vector<NodeId> pred(n);
  std::vector<bool> seen(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (local[s].none()) continue;
    std::fill(seen.begin(), seen.end(), false);
    seen[s] = true;
    std::deque<NodeId> frontier{NodeId{s}};
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (NodeId nxt : adj[cur.value()]) {
        if (seen[nxt.value()]) continue;
        seen[nxt.value()] = true;
        pred[nxt.value()] = cur;
        frontier.push_back(nxt);
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v == s || !seen[v]) continue;
      const NodeId hop = pred[v];
      if (v == self_.value()) {
        local[s].for_each(
            [&](Pattern p) { dispatcher_->table().add_route(p, hop); });
      }
      if (hop == self_) {
        // v holds routes towards self for s's patterns, i.e. self's flood
        // of sub(p) crossed the self—v link — record that fact so route
        // maintenance stays consistent with the flooded-bootstrap state.
        local[s].for_each(
            [&](Pattern p) { dispatcher_->note_sub_sent(p, NodeId{v}); });
      }
    }
  }
}

bool NodeDaemon::is_publisher() const {
  if (cluster_.publish_rate_hz <= 0.0) return false;
  if (cluster_.publishers.empty()) return true;
  return std::find(cluster_.publishers.begin(), cluster_.publishers.end(),
                   self_) != cluster_.publishers.end();
}

void NodeDaemon::publish_one() {
  const std::vector<Pattern> content =
      universe_.sample_distinct(cluster_.patterns_per_event, pub_rng_);
  const EventPtr event = dispatcher_->publish(content);
  PublishRecord rec;
  rec.seq = event->id().source_seq;
  rec.t_s = rt_->now().to_seconds();
  rec.patterns.reserve(content.size());
  for (Pattern p : content) rec.patterns.push_back(p.value());
  if (journal_ != nullptr) {
    journal_->log_publish(
        Journal::PublishEntry{rec.seq, rec.t_s, rec.patterns});
  }
  published_.push_back(std::move(rec));
  if (oracles_ != nullptr) oracles_->notify_publish(event);
  schedule_next_publish();
}

void NodeDaemon::schedule_next_publish() {
  const Duration gap =
      Duration::seconds(pub_rng_.exponential(1.0 / cluster_.publish_rate_hz));
  const SimTime at = std::max(rt_->now(), publish_start_) + gap;
  if (at >= publish_end_) return;
  publish_timer_ = rt_->after(at - rt_->now(), [this]() {
    if (rt_->now() >= publish_end_) return;
    publish_one();
  });
}

void NodeDaemon::run(const volatile std::sig_atomic_t* stop_flag) {
  rt_->set_stop_flag(stop_flag);
  EPICAST_ASSERT(dispatcher_->recovery() != nullptr);
  dispatcher_->recovery()->start();
  if (failure_detector_ != nullptr) failure_detector_->start();
  if (restarted_) {
    // Re-announce our subscriptions over the wire: peers that repaired
    // around our death retracted their routes toward us, and a late joiner
    // was never in anyone's tables to begin with. Clearing the suppression
    // marks makes the flood unconditional.
    dispatcher_->clear_sub_sent();
    for (const auto& [node, p] : cluster_.subscriptions) {
      if (node == self_) dispatcher_->subscribe(p);
    }
  }
  if (journal_ != nullptr && opts_.cache_snapshot &&
      opts_.restart_policy == fault::RestartPolicy::Warm) {
    // Half the drain window would also work; 500 ms keeps the snapshot
    // fresh enough that a SIGKILL loses at most half a second of cache.
    snapshot_timer_ = rt_->every(Duration::millis(500), Duration::millis(500),
                                 [this]() { write_snapshot(); });
  }
  if (is_publisher()) schedule_next_publish();
  rt_->run_until(drain_end_);
  publish_timer_.cancel();
  snapshot_timer_.stop();
  if (failure_detector_ != nullptr) failure_detector_->stop();
  dispatcher_->recovery()->stop();
  // One last drain turn so frames already queued locally are delivered
  // (and recorded) before the stats dump.
  rt_->poll(Duration::zero());
  if (oracles_ != nullptr) oracles_->notify_scenario_end();
}

std::string NodeDaemon::stats_json() const {
  std::ostringstream os;
  os.precision(17);

  // Locally known slice of a ScenarioResult, rendered by the same
  // serializer epicast_sim --json uses (satellite contract: one JSON shape
  // on both sides of the sim/real comparison).
  ScenarioResult local;
  local.events_published = published_.size();
  local.delivered_pairs = delivered_.size();
  for (const DeliveryRecord& d : delivered_) {
    if (d.recovered) ++local.recovered_pairs;
  }
  if (const GossipStats* g = dispatcher_->recovery()->gossip_stats()) {
    local.gossip_totals = *g;
  }
  local.memory.node_count = 1;
  local.memory.routing_bytes = dispatcher_->routing_memory_bytes();
  local.memory.seen_bytes = dispatcher_->seen_memory_bytes();
  if (const EventCache* c = dispatcher_->recovery()->event_cache()) {
    local.memory.cache_bytes = c->memory_bytes();
  }
  if (oracles_ != nullptr) local.oracle_checks = oracles_->checks();

  const auto& ds = dispatcher_->stats();
  const auto& ts = rt_->stats();
  os << "{\n"
     << "  \"node\": " << self_.value() << ",\n"
     << "  \"algorithm\": \"" << to_string(cluster_.algorithm) << "\",\n"
     << "  \"settle_s\": " << cluster_.settle_seconds << ",\n"
     << "  \"run_s\": " << cluster_.run_seconds << ",\n"
     << "  \"drain_s\": " << cluster_.drain_seconds << ",\n"
     << "  \"subscriptions\": [";
  bool first = true;
  for (const auto& [node, p] : cluster_.subscriptions) {
    if (node != self_) continue;
    os << (first ? "" : ", ") << p.value();
    first = false;
  }
  os << "],\n"
     << "  \"published\": [";
  for (std::size_t i = 0; i < published_.size(); ++i) {
    const PublishRecord& r = published_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"seq\": " << r.seq
       << ", \"t_s\": " << r.t_s << ", \"patterns\": [";
    for (std::size_t j = 0; j < r.patterns.size(); ++j) {
      os << (j == 0 ? "" : ", ") << r.patterns[j];
    }
    os << "]}";
  }
  os << (published_.empty() ? "],\n" : "\n  ],\n") << "  \"delivered\": [";
  for (std::size_t i = 0; i < delivered_.size(); ++i) {
    const DeliveryRecord& r = delivered_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"src\": " << r.source
       << ", \"seq\": " << r.seq << ", \"t_s\": " << r.t_s
       << ", \"recovered\": " << (r.recovered ? "true" : "false") << "}";
  }
  os << (delivered_.empty() ? "],\n" : "\n  ],\n");
  if (const auto* pull =
          dynamic_cast<const PullProtocolBase*>(dispatcher_->recovery())) {
    const GossipStats& gs = *pull->gossip_stats();
    os << "  \"recovery\": {\n"
       << "    \"rounds\": " << gs.rounds << ",\n"
       << "    \"events_recovered\": " << gs.events_recovered << ",\n"
       << "    \"events_served\": " << gs.events_served << ",\n"
       << "    \"request_timeouts\": " << gs.request_timeouts << ",\n"
       << "    \"lost_pending\": " << pull->lost().size() << ",\n"
       << "    \"lost_expired\": " << pull->lost().stats().expired << ",\n"
       << "    \"gaps_detected\": " << pull->detector().gaps_detected()
       << "\n  },\n";
  }
  os << "  \"dispatcher\": {\n"
     << "    \"published\": " << ds.published << ",\n"
     << "    \"delivered\": " << ds.delivered << ",\n"
     << "    \"delivered_recovered\": " << ds.delivered_recovered << ",\n"
     << "    \"duplicates\": " << ds.duplicates << ",\n"
     << "    \"forwarded\": " << ds.forwarded << "\n"
     << "  },\n"
     << "  \"transport\": {\n"
     << "    \"datagrams_sent\": " << ts.datagrams_sent << ",\n"
     << "    \"datagrams_received\": " << ts.datagrams_received << ",\n"
     << "    \"bytes_sent\": " << ts.bytes_sent << ",\n"
     << "    \"bytes_received\": " << ts.bytes_received << ",\n"
     << "    \"send_failures\": " << ts.send_failures << ",\n"
     << "    \"decode_errors\": " << ts.decode_errors << ",\n"
     << "    \"queue_overflows\": " << ts.queue_overflows << ",\n"
     << "    \"drops_injected\": " << ts.drops_injected << ",\n"
     << "    \"drops_no_link\": " << ts.drops_no_link << ",\n"
     << "    \"timers_fired\": " << ts.timers_fired << ",\n"
     << "    \"burst_drops\": " << ts.burst_drops << ",\n"
     << "    \"blackhole_drops\": " << ts.blackhole_drops << ",\n"
     << "    \"slowdown_delays\": " << ts.slowdown_delays << ",\n"
     << "    \"heartbeats_sent\": " << ts.heartbeats_sent << ",\n"
     << "    \"heartbeats_received\": " << ts.heartbeats_received << ",\n"
     << "    \"peers_suspected\": " << ts.peers_suspected << ",\n"
     << "    \"peers_confirmed_dead\": " << ts.peers_confirmed_dead << ",\n"
     << "    \"restarts_observed\": " << ts.restarts_observed << "\n"
     << "  },\n"
     << "  \"incarnation\": " << incarnation_ << ",\n"
     << "  \"restarted\": " << (restarted_ ? "true" : "false") << ",\n"
     << "  \"latency\": " << latency_.json() << ",\n"
     << "  \"oracle_checks\": "
     << (oracles_ != nullptr ? oracles_->checks() : 0) << ",\n"
     << "  \"result\": " << metrics::result_json(local) << "}\n";
  return os.str();
}

}  // namespace epicast::daemon
