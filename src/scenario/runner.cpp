#include "epicast/scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "epicast/common/assert.hpp"
#include "epicast/fault/controller.hpp"
#include "epicast/metrics/delivery_tracker.hpp"
#include "epicast/net/reconfigurator.hpp"
#include "epicast/oracle/checks.hpp"
#include "epicast/net/topology.hpp"
#include "epicast/net/transport.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/runtime/shard_runtime.hpp"
#include "epicast/scenario/sweep.hpp"
#include "epicast/scenario/workload.hpp"
#include "epicast/sim/lane_context.hpp"
#include "epicast/sim/shard_engine.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

/// Counts distinct subscribers (≠ publisher) matching an event's content.
/// Reused across publishes via an epoch-stamped scratch array — O(content ×
/// subscribers-per-pattern) per call, no allocation.
class ExpectedReceiverCounter {
 public:
  ExpectedReceiverCounter(const Workload& workload, std::uint32_t nodes,
                          std::uint32_t pattern_universe) {
    by_pattern_.resize(pattern_universe);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      for (Pattern p : workload.subscriptions_of(NodeId{i})) {
        by_pattern_[p.value()].push_back(NodeId{i});
      }
    }
    stamp_.assign(nodes, 0);
  }

  std::uint32_t count(const EventData& event) {
    ++epoch_;
    std::uint32_t n = 0;
    for (const PatternSeq& ps : event.patterns()) {
      for (NodeId sub : by_pattern_[ps.pattern.value()]) {
        if (sub == event.source()) continue;
        if (stamp_[sub.value()] == epoch_) continue;
        stamp_[sub.value()] = epoch_;
        ++n;
      }
    }
    return n;
  }

 private:
  std::vector<std::vector<NodeId>> by_pattern_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// Shared environment of the delivery/publish listeners. The listeners fire
/// on worker lanes during threaded windows, where everything here is
/// off-limits (plain counters, master clock, the expected-counter scratch)
/// — so the listener bodies live behind one pointer and are deferred to the
/// window barrier, keeping the deferred closure small enough for
/// SmallCallback's inline buffer.
struct ListenerEnv {
  DeliveryTracker* tracker = nullptr;
  Simulator* sim = nullptr;
  SimTime* last_recovery_at = nullptr;
  oracle::OracleSuite* oracles = nullptr;
  ExpectedReceiverCounter* expected = nullptr;

  void on_delivery(NodeId node, const EventPtr& event, bool recovered) const {
    if (oracles != nullptr) oracles->notify_delivery(node, event, recovered);
    if (recovered && *last_recovery_at < sim->now()) {
      *last_recovery_at = sim->now();
    }
    tracker->on_delivery(node, event->id(), sim->now(), recovered);
  }

  void on_publish(const EventPtr& event) const {
    if (oracles != nullptr) oracles->notify_publish(event);
    tracker->on_publish(event->id(), sim->now(), expected->count(*event));
  }
};

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  cfg.validate();
  const auto wall_start = std::chrono::steady_clock::now();

  Simulator sim(cfg.seed);
  sim.profiler().enable_timing(cfg.profile_hotpath);

  Rng topo_rng = sim.fork_rng();
  // The Tree path goes through random_tree with the classic cap — the same
  // call and draw sequence as before overlays existed, so the paper-scale
  // figures stay bit-identical.
  Topology topology = make_overlay(
      cfg.overlay, cfg.nodes,
      cfg.overlay == OverlayKind::Tree ? cfg.max_degree : cfg.overlay_degree,
      cfg.ws_rewire, topo_rng);

  TransportConfig tc;
  tc.link.bandwidth_bps = cfg.link_bandwidth_bps;
  tc.link.propagation = cfg.link_propagation;
  tc.link.loss_rate = cfg.link_error_rate;
  tc.control_lossless = true;
  tc.direct_latency_min = cfg.direct_latency_min;
  tc.direct_latency_max = cfg.direct_latency_max;
  tc.direct_loss_rate = cfg.effective_oob_loss();
  tc.sizing = cfg.sizing_mode;
  Transport transport(sim, topology, tc);

  MessageStats stats(cfg.nodes, cfg.sizing_mode);
  transport.add_observer(stats);

  // Sharded conservative engine (ScenarioConfig::shards). The engine forks
  // no RNG streams and, because every lane draws its tie-break sequence
  // from one shared counter, executes events in exactly the serial order —
  // results are bit-identical for every shard count (the tests/parallel
  // tier proves it). A link model without positive lookahead, or fewer
  // nodes than shards, silently falls back to the serial scheduler.
  const Duration lookahead = ShardEngine::compute_lookahead(
      cfg.link_propagation, cfg.direct_latency_min);
  std::uint32_t shards_eff = std::min(cfg.shards, cfg.nodes);
  if (lookahead <= Duration::zero()) shards_eff = 1;
  // Worker threads only make sense with shard lanes to drain; clamp to the
  // shard count and the host's parallelism. The host clamp floors at 4 so
  // single-core hosts (CI sandboxes) still drive the pool — the equivalence
  // and TSan tiers need real threads, and workers beyond the core count only
  // add barrier latency, never change results.
  const auto host = std::max(
      4u, static_cast<std::uint32_t>(SweepRunner::available_parallelism()));
  std::uint32_t threads_eff = std::min({cfg.threads, shards_eff, host});
  if (shards_eff <= 1) threads_eff = 1;
  std::unique_ptr<ShardEngine> engine;
  std::vector<std::unique_ptr<runtime::ShardRuntime>> lane_rts;
  std::unique_ptr<runtime::ShardRuntime> master_rt;
  if (shards_eff > 1) {
    engine = std::make_unique<ShardEngine>(sim, cfg.nodes, shards_eff,
                                           lookahead, threads_eff);
    transport.set_arrival_router(
        [e = engine.get()](NodeId to, Duration delay, Scheduler::Callback cb) {
          e->schedule_arrival(to, delay, std::move(cb));
        });
    for (std::uint32_t s = 0; s < shards_eff; ++s) {
      engine->lane_profiler(s).enable_timing(cfg.profile_hotpath);
    }
    lane_rts.reserve(shards_eff);
    for (std::uint32_t s = 0; s < shards_eff; ++s) {
      lane_rts.push_back(std::make_unique<runtime::ShardRuntime>(
          *engine, s, sim, &transport, /*own_pool=*/true));
    }
    master_rt = std::make_unique<runtime::ShardRuntime>(
        *engine, engine->master_lane(), sim, &transport, /*own_pool=*/false);
    if (engine->thread_count() > 1) {
      // Cross-lane MessagePtr hand-offs release pool blocks from foreign
      // threads; switch every pool to its mutex-guarded free lists.
      sim.pool().set_thread_safe(true);
      for (const auto& rt : lane_rts) rt->pool().set_thread_safe(true);
      // Topology keeps a lazily repacked CSR view; repack it on the master
      // before each parallel window so workers only ever read it.
      engine->set_parallel_prologue(
          [&topology]() { topology.repack_if_stale(); });
    }
  }
  const auto run_to = [&](SimTime t) {
    if (engine) {
      engine->run_until(t);
    } else {
      sim.run_until(t);
    }
  };

  DispatcherConfig dc;
  dc.default_payload_bytes = cfg.event_payload_bytes;
  dc.record_routes = algorithm_needs_routes(cfg.algorithm);
  // Dispatchers live on their shard lane's runtime when the engine is on
  // (declared after lane_rts so they are destroyed before the shard pools).
  auto network_ptr =
      engine ? std::make_unique<PubSubNetwork>(
                   sim, transport, dc,
                   PubSubNetwork::RuntimeProvider(
                       [&](NodeId n) -> runtime::Runtime& {
                         return *lane_rts[engine->lane_of(n)];
                       }))
             : std::make_unique<PubSubNetwork>(sim, transport, dc);
  PubSubNetwork& network = *network_ptr;

  // Conformance oracles: pure observers (no sim events, no RNG draws), so
  // enabling them leaves the run bit-identical. EPICAST_ORACLES=OFF builds
  // compile the wiring out entirely for overhead-sensitive benchmarks.
  std::unique_ptr<oracle::OracleSuite> oracles;
#ifndef EPICAST_NO_ORACLES
  if (cfg.oracles) {
    oracles = std::make_unique<oracle::OracleSuite>(
        oracle::OracleContext{&sim, &network, cfg.sizing_mode},
        oracle::FailMode::Abort);
    oracle::add_default_oracles(*oracles);
    transport.add_observer(*oracles);
    if (engine && engine->thread_count() > 1) {
      // Split dispatch: concurrent-safe oracles check sends synchronously on
      // the worker (they read only the sender's own state); the rest keep
      // firing through the suite's deferred observer at window barriers.
      transport.add_observer(oracles->sync_observer());
    }
  }
#endif

  Workload workload(sim, network, cfg);
  if (engine) {
    workload.set_node_scheduler(
        [e = engine.get()](NodeId node, SimTime at, Scheduler::Callback cb) {
          e->schedule_node_at(node, at, std::move(cb));
        });
  }

  // Phase 1: subscriptions become routing state. Flood bootstrap simulates
  // the §II forwarding floods and verifies them against the global oracle;
  // Oracle bootstrap installs the converged tables directly (they match the
  // oracle by construction — at 10⁴⁺ nodes the floods and the verification
  // would each dwarf the measured run).
  workload.issue_subscriptions();
  if (cfg.bootstrap == ScenarioConfig::SubscriptionBootstrap::Oracle) {
    network.rebuild_routes();
    run_to(cfg.publish_start());
  } else {
    run_to(cfg.publish_start());
    EPICAST_ASSERT_MSG(network.routes_consistent(),
                       "subscription forwarding left inconsistent routes");
  }

  // Phase 2 wiring: recovery protocols, metrics, churn, publishing.
  network.for_each([&](Dispatcher& d) {
    d.set_recovery(make_recovery(cfg.algorithm, d, cfg.gossip));
    d.recovery()->start();
  });

  DeliveryTracker tracker(cfg.bucket_width, cfg.recovery_horizon);
  tracker.set_measure_window(cfg.window_start(), cfg.window_end());
  SimTime last_recovery_at = SimTime::zero();
  ExpectedReceiverCounter expected(workload, cfg.nodes, cfg.pattern_universe);
  ListenerEnv env;
  env.tracker = &tracker;
  env.sim = &sim;
  env.last_recovery_at = &last_recovery_at;
  env.oracles = oracles.get();
  env.expected = &expected;

  // On a worker lane the tracker/oracle/counter state is shared across
  // lanes, so the listener bodies are deferred into the lane's effect log
  // and replayed at the window barrier in global event order — the exact
  // order the serial run would have called them in.
  network.set_delivery_listener(
      [&env](NodeId node, const EventPtr& event, bool recovered) {
        if (LaneContext* ctx = LaneContext::current()) {
          ctx->defer([&env, node, event, recovered]() {
            env.on_delivery(node, event, recovered);
          });
        } else {
          env.on_delivery(node, event, recovered);
        }
      });
  workload.set_publish_listener([&env](const EventPtr& event) {
    if (LaneContext* ctx = LaneContext::current()) {
      ctx->defer([&env, event]() { env.on_publish(event); });
    } else {
      env.on_publish(event);
    }
  });

  // Exact all-pairs distances are O(N·E); sample BFS sources at scale.
  const double mean_distance =
      topology.mean_pairwise_distance(cfg.nodes > 10000 ? 256 : 0);

  // Scenario-level components (Reconfigurator, FaultController) run on the
  // engine's master lane when sharding; serially they keep the network's
  // SimRuntime. Either way forks come from the same root RNG at the same
  // positions, so runs stay bit-identical.
  runtime::Runtime& proto_rt =
      engine ? static_cast<runtime::Runtime&>(*master_rt)
             : static_cast<runtime::Runtime&>(network.runtime());

  Reconfigurator* churn = nullptr;
  std::unique_ptr<Reconfigurator> churn_owner;
  if (cfg.route_repair == ScenarioConfig::RouteRepair::Protocol) {
    network.enable_protocol_reconfiguration();
  }
  if (cfg.reconfiguration_interval) {
    ReconfigConfig rc;
    rc.interval = *cfg.reconfiguration_interval;
    rc.repair_time = cfg.repair_time;
    rc.start_at = cfg.publish_start() + rc.interval;
    churn_owner = std::make_unique<Reconfigurator>(proto_rt, topology, rc);
    if (cfg.route_repair == ScenarioConfig::RouteRepair::Oracle) {
      churn_owner->set_repair_listener(
          [&network](const Reconfigurator::Repair&) {
            network.rebuild_routes();
          });
    }
    churn_owner->start();
    churn = churn_owner.get();
  }

  // Fault injection. The controller forks its RNG streams last, so an empty
  // plan (no controller at all) leaves every other stream — and the run —
  // bit-identical to a fault-free build.
  std::unique_ptr<fault::FaultController> faults;
  if (!cfg.faults.empty()) {
    faults = std::make_unique<fault::FaultController>(
        proto_rt, transport, network, cfg.faults,
        fault::FaultControllerConfig{cfg.publish_start(), cfg.end_time()});
    if (churn != nullptr) {
      // A Reconfigurator repair must not attach a link to a crashed node —
      // defer it until the victim restarts.
      churn->set_node_filter(
          [f = faults.get()](NodeId n) { return !f->is_crashed(n); });
    }
    if (cfg.route_repair == ScenarioConfig::RouteRepair::Oracle) {
      faults->set_heal_listener([&network]() { network.rebuild_routes(); });
    }
    faults->start();
  }

  workload.start_publishing(cfg.publish_start(), cfg.end_time());

  // Traffic snapshots bracketing the measurement window (master lane under
  // the engine — scenario bookkeeping, not node work).
  const auto at_master = [&](SimTime t, Scheduler::Callback cb) {
    if (engine) {
      engine->schedule_master_at(t, std::move(cb));
    } else {
      sim.at(t, std::move(cb));
    }
  };
  MessageStats::Snapshot window_begin;
  at_master(cfg.window_start(),
            [&window_begin, &stats]() { window_begin = stats.snapshot(); });
  MessageStats::Snapshot window_close;
  at_master(cfg.window_end(),
            [&window_close, &stats]() { window_close = stats.snapshot(); });

  run_to(cfg.end_time());

  // -- collect ----------------------------------------------------------------
  ScenarioResult result;
  result.delivery_rate = tracker.delivery_rate();
  result.eventual_delivery_rate = tracker.eventual_delivery_rate();
  result.receivers_per_event = tracker.receivers_per_event();
  result.mean_recovery_latency_s = tracker.mean_recovery_latency();
  result.recovery_latency_p50_s = tracker.recovery_latency_quantile(0.5);
  result.recovery_latency_p90_s = tracker.recovery_latency_quantile(0.9);
  result.recovery_latency_p99_s = tracker.recovery_latency_quantile(0.99);
  result.events_published = workload.events_published();
  result.events_tracked = tracker.events_tracked();
  result.expected_pairs = tracker.expected_pairs();
  result.delivered_pairs = tracker.delivered_pairs();
  result.recovered_pairs = tracker.recovered_pairs();
  result.delivery_series = tracker.delivery_series(to_string(cfg.algorithm));

  result.traffic = window_close - window_begin;
  result.gossip_msgs_per_dispatcher =
      static_cast<double>(result.traffic.gossip_sends()) /
      static_cast<double>(cfg.nodes);
  result.gossip_event_ratio = result.traffic.gossip_event_ratio();
  result.gossip_bytes_per_dispatcher =
      static_cast<double>(result.traffic.gossip_bytes()) /
      static_cast<double>(cfg.nodes);
  result.gossip_event_byte_ratio = result.traffic.gossip_event_byte_ratio();

  result.memory.node_count = cfg.nodes;
  result.memory.topology_bytes = topology.memory_bytes();
  result.memory.tracker_bytes = tracker.memory_bytes();
  network.for_each([&result](Dispatcher& d) {
    if (const GossipStats* s = d.recovery()->gossip_stats()) {
      result.gossip_totals += *s;
    }
    result.memory.routing_bytes += d.routing_memory_bytes();
    result.memory.seen_bytes += d.seen_memory_bytes();
    if (const EventCache* c = d.recovery()->event_cache()) {
      result.memory.cache_bytes += c->memory_bytes();
    }
    if (d.recovery()) d.recovery()->stop();
  });

  result.mean_pairwise_distance = mean_distance;
  if (churn) {
    result.reconfig_breaks = churn->breaks();
    result.reconfig_repairs = churn->repairs();
    result.reconfig_deferred = churn->deferred_repairs();
  }
  if (faults) {
    result.fault.stats = faults->stats();
    result.fault.epochs = faults->epoch_windows();
    for (fault::FaultEpoch& epoch : result.fault.epochs) {
      const DeliveryTracker::PairWindow w = tracker.pairs_in_range(
          SimTime::zero() + Duration::seconds(epoch.start_s),
          SimTime::zero() + Duration::seconds(epoch.end_s));
      epoch.expected_pairs = w.expected;
      epoch.delivered_pairs = w.delivered;
      epoch.eventual_pairs = w.delivered_any;
    }
    const SimTime last_heal = faults->last_heal();
    if (last_heal > SimTime::zero()) {
      result.fault.last_heal_s = last_heal.to_seconds();
      result.fault.post_heal_convergence_s =
          last_recovery_at > last_heal
              ? (last_recovery_at - last_heal).to_seconds()
              : 0.0;
    }
  }
  result.drops_no_link = stats.snapshot().drops_no_link;
  if (oracles != nullptr) {
    oracles->notify_scenario_end();
    result.oracle_checks = oracles->checks();
  }
  result.hotpath = sim.profiler().snapshot();
  if (engine) {
    for (std::uint32_t s = 0; s < engine->shard_count(); ++s) {
      result.hotpath += engine->lane_profiler(s).snapshot();
    }
    const ShardEngine::Stats es = engine->stats();
    result.shard.shards = engine->shard_count();
    result.shard.threads = engine->thread_count();
    result.shard.windows = es.windows;
    result.shard.parallel_windows = es.parallel_windows;
    result.shard.events_per_window =
        es.windows == 0 ? 0.0
                        : static_cast<double>(es.window_events) /
                              static_cast<double>(es.windows);
    result.shard.cross_post_ratio =
        es.mailbox_posted == 0 ? 0.0
                               : static_cast<double>(es.cross_posted) /
                                     static_cast<double>(es.mailbox_posted);
    result.shard.barrier_wait_seconds =
        static_cast<double>(es.barrier_wait_ns) * 1e-9;
  }
  // Nothing scheduled past end_time runs. Releasing it first makes the pool
  // counters describe what the scenario retains — the events in the
  // retransmission buffers — not the messages the cut-off caught in flight.
  if (engine) {
    engine->discard_pending();
  } else {
    sim.scheduler().discard_pending();
  }
  result.pool = sim.pool().stats();
  for (const auto& rt : lane_rts) {
    const MessagePool::Stats s = rt->pool().stats();
    result.pool.allocations += s.allocations;
    result.pool.deallocations += s.deallocations;
    result.pool.reuses += s.reuses;
    result.pool.oversize += s.oversize;
    result.pool.slab_bytes += s.slab_bytes;
  }
  result.sim_events_executed =
      engine ? engine->executed() : sim.scheduler().executed();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace epicast
