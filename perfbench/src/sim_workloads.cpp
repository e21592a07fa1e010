// perfbench — the three simulation workloads.
//
// Each repetition runs the library's default configuration for the
// workload through the public API: a set-up replica (make_overlay →
// Transport → the sharded engine when sharded → PubSubNetwork →
// Workload::issue_subscriptions → route bootstrap up to publish start,
// exactly the calls run_scenario makes first) timed as setup_s, then one whole run_scenario call timed as run_s.
// Each run measures a fixed set of inputs derived from --seed, so the same
// seed always measures the same inputs. Untraced runs measure the inputs
// concurrently on the CPUs the host can spare, each thread repeating its
// share of the inputs while time remains; quality metrics are taken over
// the first repetition of each input, timings as per-input medians averaged
// over the set.
#include <algorithm>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "epicast/epicast.hpp"
#include "epicast/metrics/result_json.hpp"
#include "epicast/runtime/shard_runtime.hpp"
#include "epicast/sim/shard_engine.hpp"
#include "scenario_builders.hpp"

namespace perfbench {
namespace {

using namespace epicast;

struct SimSpec {
  const char* name;
  /// Distinct inputs per run (repetitions cycle through them).
  std::uint32_t inputs;
  /// Set-up replicas per repetition (set-up is cheap; more samples steady
  /// its median).
  std::uint32_t setup_repeats;
  std::function<ScenarioConfig(std::uint64_t seed, bool tiny)> make;
};

/// Busy threads the benchmark may run at once, at most `limit`: one fewer
/// than the CPUs this process may run on, so the rest of the system keeps a
/// CPU and the threads do not queue behind each other.
std::uint32_t spare_cpus(std::uint32_t limit) {
  const auto host = static_cast<std::uint32_t>(
      std::max(1u, SweepRunner::available_parallelism()));
  return std::clamp(host > 1 ? host - 1 : 1u, 1u, limit);
}

const std::vector<SimSpec>& sim_specs() {
  static const std::vector<SimSpec> specs = {
      // Fig. 2 operating point: N=100 random tree, ε=0.1, combined pull,
      // flood bootstrap, serial engine.
      {"paper-combined-pull", 6, 5,
       [](std::uint64_t seed, bool tiny) {
         ScenarioConfig cfg =
             figures::base(Algorithm::CombinedPull, tiny ? 0.5 : 2.0, seed);
         if (tiny) {
           cfg.nodes = 30;
           cfg.recovery_horizon = Duration::seconds(1.0);
         }
         return cfg;
       }},
      // Scale overlay on the sharded engine: figures::scale random-regular,
      // oracle bootstrap, 4 shards. In the gated runs each run_scenario call
      // drives its windows from its own thread: with a worker pool, every
      // window barrier waits on thread wake-ups, and on a shared virtual
      // machine that made wall time swing threefold between runs. The
      // traced run measures the pool (sim.speedup_vs_serial and the window
      // figures).
      {"scale-sharded", 6, 2,
       [](std::uint64_t seed, bool tiny) {
         ScenarioConfig cfg =
             figures::scale(Algorithm::CombinedPull, OverlayKind::RandomRegular,
                            tiny ? 200 : 500, tiny ? 0.3 : 1.0, seed);
         cfg.shards = 4;
         if (tiny) cfg.recovery_horizon = Duration::seconds(0.5);
         return cfg;
       }},
      // Control-plane churn: N=300 tree, no recovery, one link broken every
      // 0.2 s and restored by the distributed route-repair protocol.
      {"churn-protocol-repair", 6, 5,
       [](std::uint64_t seed, bool tiny) {
         ScenarioConfig cfg =
             figures::base(Algorithm::NoRecovery, tiny ? 0.5 : 2.0, seed);
         cfg.nodes = tiny ? 60 : 300;
         cfg.reconfiguration_interval = Duration::seconds(0.2);
         cfg.route_repair = ScenarioConfig::RouteRepair::Protocol;
         if (tiny) cfg.recovery_horizon = Duration::seconds(0.5);
         return cfg;
       }},
  };
  return specs;
}

const SimSpec& find_spec(const std::string& name) {
  for (const SimSpec& s : sim_specs()) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown sim workload " + name);
}

struct SetupTimes {
  double total_s = 0.0;
  double overlay_s = 0.0;
  double routes_s = 0.0;
};

/// The set-up half of run_scenario, replayed through the public API in the
/// runner's order: overlay generation, transport and its message statistics,
/// the sharded engine with its lane runtimes when cfg.shards > 1,
/// dispatchers, oracles, subscriptions, and the route bootstrap up to
/// publish start (flood or oracle install), driven by the engine the run
/// uses.
SetupTimes replay_setup(const ScenarioConfig& cfg, SpanLog& spans,
                        std::uint32_t parent, Outcome& out) {
  SetupTimes t;
  const std::uint32_t root = spans.begin("setup", parent);
  Simulator sim(cfg.seed);
  Rng topo_rng = sim.fork_rng();
  std::unique_ptr<Topology> topology;
  t.overlay_s = timed(spans, "make_overlay", root, [&] {
    topology = std::make_unique<Topology>(make_overlay(
        cfg.overlay, cfg.nodes,
        cfg.overlay == OverlayKind::Tree ? cfg.max_degree : cfg.overlay_degree,
        cfg.ws_rewire, topo_rng));
  });
  TransportConfig tc;
  tc.link.bandwidth_bps = cfg.link_bandwidth_bps;
  tc.link.propagation = cfg.link_propagation;
  tc.link.loss_rate = cfg.link_error_rate;
  tc.control_lossless = true;
  tc.direct_latency_min = cfg.direct_latency_min;
  tc.direct_latency_max = cfg.direct_latency_max;
  tc.direct_loss_rate = cfg.effective_oob_loss();
  tc.sizing = cfg.sizing_mode;
  Transport transport(sim, *topology, tc);
  MessageStats stats(cfg.nodes, cfg.sizing_mode);
  transport.add_observer(stats);

  // The sharded engine, shaped and clamped as run_scenario does it.
  const Duration lookahead = ShardEngine::compute_lookahead(
      cfg.link_propagation, cfg.direct_latency_min);
  std::uint32_t shards = std::min(cfg.shards, cfg.nodes);
  if (lookahead <= Duration::zero()) shards = 1;
  const auto host = std::max(
      4u, static_cast<std::uint32_t>(SweepRunner::available_parallelism()));
  const std::uint32_t threads =
      shards > 1 ? std::min({cfg.threads, shards, host}) : 1;
  std::unique_ptr<ShardEngine> engine;
  std::vector<std::unique_ptr<runtime::ShardRuntime>> lane_rts;
  std::unique_ptr<runtime::ShardRuntime> master_rt;
  if (shards > 1) {
    engine = std::make_unique<ShardEngine>(sim, cfg.nodes, shards, lookahead,
                                           threads);
    transport.set_arrival_router(
        [e = engine.get()](NodeId to, Duration delay, Scheduler::Callback cb) {
          e->schedule_arrival(to, delay, std::move(cb));
        });
    for (std::uint32_t s = 0; s < shards; ++s) {
      lane_rts.push_back(std::make_unique<runtime::ShardRuntime>(
          *engine, s, sim, &transport, /*own_pool=*/true));
    }
    master_rt = std::make_unique<runtime::ShardRuntime>(
        *engine, engine->master_lane(), sim, &transport, /*own_pool=*/false);
    if (engine->thread_count() > 1) {
      sim.pool().set_thread_safe(true);
      for (const auto& rt : lane_rts) rt->pool().set_thread_safe(true);
      engine->set_parallel_prologue(
          [&topology]() { topology->neighbors(NodeId{0}); });
    }
  }

  DispatcherConfig dc;
  dc.default_payload_bytes = cfg.event_payload_bytes;
  dc.record_routes = algorithm_needs_routes(cfg.algorithm);
  auto network =
      engine ? std::make_unique<PubSubNetwork>(
                   sim, transport, dc,
                   PubSubNetwork::RuntimeProvider(
                       [&](NodeId n) -> runtime::Runtime& {
                         return *lane_rts[engine->lane_of(n)];
                       }))
             : std::make_unique<PubSubNetwork>(sim, transport, dc);
  oracle::OracleSuite oracles(
      oracle::OracleContext{&sim, network.get(), cfg.sizing_mode},
      oracle::FailMode::Abort);
  oracle::add_default_oracles(oracles);
  transport.add_observer(oracles);
  if (engine && engine->thread_count() > 1) {
    transport.add_observer(oracles.sync_observer());
  }
  Workload workload(sim, *network, cfg);
  if (engine) {
    workload.set_node_scheduler(
        [e = engine.get()](NodeId node, SimTime at, Scheduler::Callback cb) {
          e->schedule_node_at(node, at, std::move(cb));
        });
  }
  t.routes_s = timed(spans, "route_bootstrap", root, [&] {
    workload.issue_subscriptions();
    if (cfg.bootstrap == ScenarioConfig::SubscriptionBootstrap::Oracle) {
      network->rebuild_routes();
    }
    if (engine) {
      engine->run_until(cfg.publish_start());
    } else {
      sim.run_until(cfg.publish_start());
    }
  });
  if (!network->routes_consistent()) {
    out.fail("set-up left inconsistent routes (seed " +
             std::to_string(cfg.seed) + ")");
  }
  t.total_s = spans.end(root);
  return t;
}

struct Rep {
  ScenarioResult result;
  std::string json;
  double run_s = 0.0;
};

Rep run_once(const ScenarioConfig& cfg, SpanLog& spans, std::uint32_t parent,
             const char* name, Outcome& out) {
  Rep rep;
  ++out.attempted;
  rep.run_s =
      timed(spans, name, parent, [&] { rep.result = run_scenario(cfg); });
  rep.json = metrics::result_json(rep.result);
  if (cfg.oracles && rep.result.oracle_checks == 0) {
    out.fail(std::string(name) + ": oracles made no checks (seed " +
             std::to_string(cfg.seed) + ")");
  }
  return rep;
}

double offered_events(const ScenarioConfig& cfg) {
  const double publishers =
      cfg.publisher_count == 0 ? cfg.nodes
                               : std::min(cfg.publisher_count, cfg.nodes);
  return publishers * cfg.publish_rate_hz *
         (cfg.end_time() - cfg.publish_start()).to_seconds();
}

/// Every message sent inside the measurement window (events, control,
/// gossip) per pair delivered from that window.
double msgs_per_delivery(const ScenarioResult& r) {
  std::uint64_t sends = 0;
  for (const std::uint64_t s : r.traffic.sends) sends += s;
  return ratio(static_cast<double>(sends),
               static_cast<double>(r.delivered_pairs));
}

double ns_per_op(const HotpathProfiler::Snapshot& h, HotPhase p) {
  return ratio(static_cast<double>(h[p].ns), static_cast<double>(h[p].ops));
}

/// Provenance read off the first measured result: the engine shape after
/// the runner's clamping, and whether the oracles were compiled in and live.
void record_effective(const ScenarioResult& r, Outcome& out) {
  out.prov("shards_effective", std::to_string(r.shard.shards));
  out.prov("threads_effective", std::to_string(r.shard.threads));
  out.prov("oracles_live", r.oracle_checks > 0 ? "true" : "false");
}

/// Keeps the first result per input and fails any later repetition of the
/// same input whose serialized result differs (same seed → same counts).
class Reproducibility {
 public:
  void check(std::uint32_t input, const Rep& rep, Outcome& out) {
    const auto [it, fresh] = first_.emplace(input, rep.json);
    if (!fresh && it->second != rep.json) {
      out.fail("input " + std::to_string(input) +
               " did not reproduce its first result");
    }
  }

 private:
  std::map<std::uint32_t, std::string> first_;
};

/// Timings kept per input; a run reports the mean over inputs of each
/// input's median, so seed-to-seed spread averages over the input set.
class PerInput {
 public:
  explicit PerInput(std::uint32_t inputs) : v_(inputs) {}
  void add(std::uint32_t input, double x) { v_[input].push_back(x); }
  [[nodiscard]] double mean_of_medians() const {
    double sum = 0.0;
    for (const auto& v : v_) sum += median(v);
    return sum / static_cast<double>(v_.size());
  }

 private:
  std::vector<std::vector<double>> v_;
};

/// Measures the inputs concurrently, input i on lane i % lanes, so that a
/// run's timing averages over the CPUs of the host: on a shared virtual
/// machine each CPU slows down and speeds up on its own, for tens of
/// seconds at a time, and a single thread would carry one CPU's drift.
void untraced(const Options& opt, const SimSpec& spec, SpanLog& spans,
              Outcome& out) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::uint32_t lanes = spare_cpus(spec.inputs);
  PerInput run_s(spec.inputs), setup_s(spec.inputs);
  std::vector<Rep> first_pass(spec.inputs);
  std::vector<Outcome> lane_out(lanes);
  std::vector<std::uint32_t> lane_reps(lanes, 0);
  std::vector<std::exception_ptr> errors(lanes);
  // Every input runs once. A lane's first repetition is not timed: it pays
  // for waking the CPU and growing the heap, which made first repetitions
  // about 15 % slower than later ones. The lane then runs that input again
  // timed, and further passes over its inputs while another repetition is
  // expected to finish inside --seconds.
  const auto lane = [&](std::uint32_t l) {
    Outcome& lo = lane_out[l];
    Reproducibility repro;
    const std::uint32_t mine = (spec.inputs - l + lanes - 1) / lanes;
    std::uint32_t& reps = lane_reps[l];
    try {
      for (std::int64_t last_ns = 0;
           reps <= mine || now_ns() + last_ns < deadline; ++reps) {
        const std::int64_t start = now_ns();
        const std::uint32_t input = l + (reps % mine) * lanes;
        const ScenarioConfig cfg =
            spec.make(input_seed(opt.seed, input), opt.tiny);
        const std::uint32_t root = spans.begin("rep");
        for (std::uint32_t k = 0; k < spec.setup_repeats; ++k) {
          const double t = replay_setup(cfg, spans, root, lo).total_s;
          if (reps > 0) setup_s.add(input, t);
        }
        Rep rep = run_once(cfg, spans, root, "run_scenario", lo);
        spans.end(root);
        if (reps > 0) run_s.add(input, rep.run_s);
        repro.check(input, rep, lo);
        if (reps < mine) first_pass[input] = std::move(rep);
        last_ns = now_ns() - start;
      }
    } catch (...) {
      errors[l] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t l = 1; l < lanes; ++l) threads.emplace_back(lane, l);
  lane(0);
  for (std::thread& t : threads) t.join();
  std::uint32_t reps = 0;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    out.absorb(lane_out[l]);
    reps += lane_reps[l];
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  out.prov("concurrent_inputs", std::to_string(lanes));

  record_effective(first_pass.front().result, out);
  const ScenarioConfig cfg0 = spec.make(input_seed(opt.seed, 0), opt.tiny);
  if (cfg0.shards > 1) {
    // The sharded engine must reproduce the serial scheduler byte for byte.
    ScenarioConfig serial = cfg0;
    serial.shards = 1;
    const Rep s = run_once(serial, spans, 0, "run_scenario_serial", out);
    if (s.json != first_pass.front().json) {
      out.fail("sharded result differs from the shards=1 run");
    }
    out.note("sim.serial_run_s", s.run_s, "s");
  }

  double delivery = 0, eventual = 0, published = 0, msgs = 0, gossip = 0;
  double recovery_p50 = 0, recovery_p99 = 0;
  for (std::uint32_t k = 0; k < spec.inputs; ++k) {
    const ScenarioConfig cfg = spec.make(input_seed(opt.seed, k), opt.tiny);
    const ScenarioResult& r = first_pass[k].result;
    delivery += r.delivery_rate;
    eventual += r.eventual_delivery_rate;
    published += ratio(static_cast<double>(r.events_published),
                       offered_events(cfg));
    msgs += msgs_per_delivery(r);
    gossip += r.gossip_msgs_per_dispatcher;
    recovery_p50 += r.recovery_latency_p50_s;
    recovery_p99 += r.recovery_latency_p99_s;
  }
  const double n = spec.inputs;
  out.add("run_s", run_s.mean_of_medians(), "s");
  out.add("setup_s", setup_s.mean_of_medians(), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("delivery_rate", delivery / n, "share");
  out.add("eventual_delivery", eventual / n, "share");
  out.add("msgs_per_delivery", msgs / n, "count");
  out.add("published_ratio", published / n, "share");
  out.note("gossip_msgs_per_dispatcher", gossip / n, "count");
  out.note("recovery_latency_p50_ms", recovery_p50 / n * 1e3, "ms");
  out.note("recovery_latency_p99_ms", recovery_p99 / n * 1e3, "ms");
  out.note("repetitions", reps, "count");
}

void traced(const Options& opt, const SimSpec& spec, SpanLog& spans,
            Outcome& out) {
  // Triples on one input: profiled (the traced measurement), unprofiled
  // (tracing overhead = difference), oracles off (oracle overhead share).
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<double> trace_over_s, trace_over_share, oracle_share;
  std::vector<double> overlay_s, routes_s;
  std::vector<HotpathProfiler::Snapshot> profiles;
  std::vector<double> traced_run_s, plain_run_s;
  Reproducibility repro;
  std::unique_ptr<Rep> first;
  std::int64_t last_ns = 0;
  for (std::uint32_t i = 0; i < 1 || now_ns() + last_ns < deadline; ++i) {
    const std::int64_t start = now_ns();
    const std::uint32_t input = i % spec.inputs;
    ScenarioConfig cfg = spec.make(input_seed(opt.seed, input), opt.tiny);
    const std::uint32_t root = spans.begin("rep");
    const SetupTimes st = replay_setup(cfg, spans, root, out);
    overlay_s.push_back(st.overlay_s);
    routes_s.push_back(st.routes_s);

    cfg.profile_hotpath = true;
    Rep prof = run_once(cfg, spans, root, "run_scenario", out);
    cfg.profile_hotpath = false;
    const Rep plain = run_once(cfg, spans, root, "run_scenario_untraced", out);
    cfg.oracles = false;
    const Rep bare = run_once(cfg, spans, root, "run_scenario_no_oracles", out);
    spans.end(root);

    // Profiling changes no simulated outcome; neither do the oracles.
    if (prof.json != plain.json || plain.json != bare.json) {
      out.fail("profiling or oracles changed the result (input " +
               std::to_string(input) + ")");
    }
    repro.check(input, plain, out);
    trace_over_s.push_back(prof.run_s - plain.run_s);
    trace_over_share.push_back(ratio(prof.run_s - plain.run_s, plain.run_s));
    oracle_share.push_back(ratio(plain.run_s - bare.run_s, plain.run_s));
    profiles.push_back(prof.result.hotpath);
    traced_run_s.push_back(prof.run_s);
    plain_run_s.push_back(plain.run_s);
    if (!first) first = std::make_unique<Rep>(std::move(prof));
    last_ns = now_ns() - start;
  }
  const ScenarioResult& r = first->result;
  record_effective(r, out);
  const ScenarioConfig cfg0 = spec.make(input_seed(opt.seed, 0), opt.tiny);

  // Sharded engine: one run on the worker pool and one serial run of
  // input 0, both byte-identical to the sharded single-thread result.
  double speedup = 1.0;
  ScenarioResult::ShardExecution engine = r.shard;
  double barrier_share = 0.0;
  if (cfg0.shards > 1) {
    ScenarioConfig pooled = cfg0;
    pooled.threads = spare_cpus(cfg0.shards);
    const Rep p = run_once(pooled, spans, 0, "run_scenario_pool", out);
    ScenarioConfig serial = cfg0;
    serial.shards = 1;
    const Rep s = run_once(serial, spans, 0, "run_scenario_serial", out);
    if (p.json != first->json || s.json != first->json) {
      out.fail("pool or shards=1 result differs from the sharded result");
    }
    speedup = ratio(s.run_s, p.run_s);
    engine = p.result.shard;
    barrier_share = ratio(engine.barrier_wait_seconds, p.run_s);
    out.prov("pool_threads_effective", std::to_string(engine.threads));
  }

  const auto phase_ns = [&](HotPhase p) {
    std::vector<double> v;
    for (const auto& h : profiles) v.push_back(ns_per_op(h, p));
    return median(v);
  };
  const auto ops = [&](HotPhase p) {
    return static_cast<double>(r.hotpath[p].ops);
  };
  const GossipStats& g = r.gossip_totals;

  out.add("sim.events", static_cast<double>(r.sim_events_executed), "count");
  out.add("sim.windows", static_cast<double>(engine.windows), "count");
  out.add("sim.events_per_window", engine.events_per_window, "count");
  out.add("sim.parallel_window_share",
          ratio(static_cast<double>(engine.parallel_windows),
                static_cast<double>(engine.windows)),
          "share");
  out.add("sim.cross_post_ratio", engine.cross_post_ratio, "share");
  out.add("sim.barrier_wait_share", barrier_share, "share");
  out.add("sim.speedup_vs_serial", speedup, "x");

  out.add("net.overlay_sends", ops(HotPhase::TransportOverlay), "count");
  out.add("net.overlay_ns_per_send", phase_ns(HotPhase::TransportOverlay),
          "ns");
  out.add("net.direct_sends", ops(HotPhase::TransportDirect), "count");
  out.add("net.direct_ns_per_send", phase_ns(HotPhase::TransportDirect), "ns");
  out.add("net.topology_bytes", static_cast<double>(r.memory.topology_bytes),
          "bytes");
  out.add("net.overlay_build_s", median(overlay_s), "s");

  out.add("pubsub.dispatch_ops", ops(HotPhase::Dispatch), "count");
  out.add("pubsub.dispatch_ns_per_op", phase_ns(HotPhase::Dispatch), "ns");
  out.add("pubsub.forward_ops", ops(HotPhase::Forward), "count");
  out.add("pubsub.forward_ns_per_op", phase_ns(HotPhase::Forward), "ns");
  out.add("pubsub.control_ops", ops(HotPhase::Control), "count");
  out.add("pubsub.control_ns_per_op", phase_ns(HotPhase::Control), "ns");
  out.add("pubsub.route_bootstrap_s", median(routes_s), "s");
  out.add("pubsub.routing_bytes", static_cast<double>(r.memory.routing_bytes),
          "bytes");
  out.add("pubsub.seen_bytes", static_cast<double>(r.memory.seen_bytes),
          "bytes");
  out.add("pubsub.drops_no_link", static_cast<double>(r.drops_no_link),
          "count");

  out.add("gossip.round_ops", ops(HotPhase::GossipRound), "count");
  out.add("gossip.round_ns_per_op", phase_ns(HotPhase::GossipRound), "ns");
  out.add("gossip.handle_ops", ops(HotPhase::GossipHandle), "count");
  out.add("gossip.handle_ns_per_op", phase_ns(HotPhase::GossipHandle), "ns");
  out.add("gossip.cache_ops", ops(HotPhase::CacheOp), "count");
  out.add("gossip.cache_ns_per_op", phase_ns(HotPhase::CacheOp), "ns");
  out.add("gossip.recovered_per_digest",
          ratio(static_cast<double>(g.events_recovered),
                static_cast<double>(g.digests_originated +
                                    g.digests_forwarded)),
          "ratio");
  out.add("gossip.cache_bytes", static_cast<double>(r.memory.cache_bytes),
          "bytes");
  out.add("gossip.msgs_per_dispatcher", r.gossip_msgs_per_dispatcher,
          "count");

  out.add("pool.reuse_ratio",
          ratio(static_cast<double>(r.pool.reuses),
                static_cast<double>(r.pool.allocations)),
          "share");
  out.add("pool.slab_bytes", static_cast<double>(r.pool.slab_bytes), "bytes");

  out.add("oracle.checks", static_cast<double>(r.oracle_checks), "count");
  out.add("oracle.overhead_share", median(oracle_share), "share");

  out.add("metrics.tracker_bytes", static_cast<double>(r.memory.tracker_bytes),
          "bytes");

  out.add("trace.overhead_s", median(trace_over_s), "s");
  out.add("trace.overhead_share", median(trace_over_share), "share");
  out.add("trace.run_s", median(traced_run_s), "s");
  out.add("trace.untraced_run_s", median(plain_run_s), "s");
  out.add("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  for (const SimSpec& s : sim_specs()) {
    if (name == s.name) return true;
  }
  return false;
}

void run_sim_workload(const Options& opt, SpanLog& spans, Outcome& out) {
  const SimSpec& spec = find_spec(opt.workload);
  const ScenarioConfig cfg0 = spec.make(input_seed(opt.seed, 0), opt.tiny);
  out.prov("kind", "\"sim\"");
  out.prov("inputs", std::to_string(spec.inputs));
  out.prov("nodes", std::to_string(cfg0.nodes));
  out.prov("algorithm", json_string(to_string(cfg0.algorithm)));
  out.prov("overlay", json_string(to_string(cfg0.overlay)));
  out.prov("measure_s", json_number(cfg0.measure.to_seconds()));
  out.prov("shards_requested", std::to_string(cfg0.shards));
  out.prov("threads_requested", std::to_string(cfg0.threads));
  out.prov("oracles", cfg0.oracles ? "true" : "false");
  if (opt.trace) {
    traced(opt, spec, spans, out);
  } else {
    untraced(opt, spec, spans, out);
  }
}

}  // namespace perfbench
