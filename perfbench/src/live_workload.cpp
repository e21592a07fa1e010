// perfbench — the live-loopback workload: real UDP sockets.
//
// One session builds four NodeDaemons in this process (timed as setup_s:
// socket bind, route install, oracle wiring), runs them on a shared
// CLOCK_MONOTONIC epoch — the calling thread drives one daemon, three
// threads drive the others — reports the CPU time of that run phase as
// run_s (its wall length is fixed by the session config), and checks every delivery against the publish
// and subscription records afterwards. Publishing is open loop: each daemon
// publishes a Poisson stream at a fixed rate below saturation, whatever the
// cluster's state. Sessions repeat until --seconds is used up; each session
// draws its cluster (tree shape, ports, subscriptions) from --seed and the
// session index.
#include <ctime>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "epicast/daemon/node.hpp"
#include "epicast/gossip/stats.hpp"
#include "epicast/runtime/cluster.hpp"
#include "epicast/wire/codec.hpp"

namespace perfbench {
namespace {

using namespace epicast;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kPatterns = 16;
constexpr std::uint32_t kSubsPerNode = 4;
constexpr std::uint32_t kSetupRepeats = 5;
/// A remote delivery counts towards delivery_rate when it lands within
/// this long of its publish — the live analogue of the simulator's
/// recovery horizon, sized to admit one or two gossip recoveries.
constexpr double kDeadlineS = 0.25;

struct LiveShape {
  double rate_hz;
  double settle_s;
  double run_s;
  double drain_s;
};

LiveShape shape(bool tiny) {
  return tiny ? LiveShape{500.0, 0.2, 0.4, 0.4}
              : LiveShape{1000.0, 0.25, 1.5, 0.75};
}

/// Reserves distinct free loopback UDP ports: bind all, then release all.
std::vector<std::uint16_t> free_udp_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != n) throw std::runtime_error("cannot reserve UDP ports");
  return ports;
}

/// CPU seconds used so far by every thread of this process.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A random 4-node tree with random subscriptions, combined pull, 5 %
/// synthetic receive-side loss; everything else is the daemon default.
runtime::ClusterConfig make_cluster(std::uint64_t seed, const LiveShape& s) {
  std::mt19937_64 rng(seed);
  runtime::ClusterConfig cfg;
  for (const std::uint16_t port : free_udp_ports(kNodes)) {
    cfg.endpoints.push_back({"127.0.0.1", port});
  }
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    cfg.links.emplace_back(NodeId{static_cast<std::uint32_t>(rng() % i)},
                           NodeId{i});
  }
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    std::set<std::uint32_t> subs;
    while (subs.size() < kSubsPerNode) {
      subs.insert(static_cast<std::uint32_t>(rng() % kPatterns));
    }
    for (const std::uint32_t p : subs) {
      cfg.subscriptions.emplace_back(NodeId{n}, Pattern{p});
    }
  }
  cfg.algorithm = Algorithm::CombinedPull;
  cfg.pattern_universe = kPatterns;
  cfg.patterns_per_event = 1;
  cfg.event_payload_bytes = 200;
  cfg.publish_rate_hz = s.rate_hz;
  cfg.settle_seconds = s.settle_s;
  cfg.run_seconds = s.run_s;
  cfg.drain_seconds = s.drain_s;
  cfg.drop_rate = 0.05;
  cfg.seed = seed;
  cfg.validate();
  return cfg;
}

/// Frames a daemon received, captured flat (one append per frame keeps the
/// capture cheap on the receive path).
struct FrameCapture {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;
};

struct SessionTotals {
  std::vector<double> setup_s, run_s;
  std::vector<double> latency_ms, hop_latency_ms;  ///< remote deliveries
  std::uint64_t expected = 0, delivered = 0, in_deadline = 0, recovered = 0;
  double published = 0, offered = 0;
  std::uint64_t daemons = 0;
  runtime::AsyncRuntime::Stats rt;
  HotpathProfiler::Snapshot hotpath;
  GossipStats gossip;
  std::uint64_t oracle_checks = 0;
  std::uint64_t frames = 0, frame_bytes = 0;
  std::vector<double> encode_ns, decode_ns;
};

void add_stats(runtime::AsyncRuntime::Stats& a,
               const runtime::AsyncRuntime::Stats& b) {
  a.datagrams_sent += b.datagrams_sent;
  a.datagrams_received += b.datagrams_received;
  a.send_failures += b.send_failures;
  a.decode_errors += b.decode_errors;
  a.queue_overflows += b.queue_overflows;
  a.timers_fired += b.timers_fired;
  a.drops_no_link += b.drops_no_link;
}

/// Decodes every captured frame with the public Codec, re-encodes it, and
/// requires the bytes to round-trip exactly; times both directions.
void replay_frames(const std::vector<FrameCapture>& captures,
                   SessionTotals& tot, Outcome& out) {
  std::vector<MessagePtr> decoded;
  std::size_t frames = 0;
  for (const FrameCapture& c : captures) frames += c.ends.size();
  decoded.reserve(frames);
  std::uint64_t bytes = 0;
  const std::int64_t t0 = now_ns();
  for (const FrameCapture& c : captures) {
    std::size_t begin = 0;
    for (const std::size_t end : c.ends) {
      wire::Decoded d = wire::Codec::decode(
          std::span<const std::uint8_t>(c.bytes.data() + begin, end - begin));
      decoded.push_back(d.ok() ? d.message() : MessagePtr{});
      bytes += end - begin;
      begin = end;
    }
  }
  const std::int64_t t1 = now_ns();
  wire::WireBuffer buf;
  std::vector<std::size_t> encoded_ends;
  encoded_ends.reserve(frames);
  for (const MessagePtr& m : decoded) {
    if (m) wire::Codec::encode(*m, buf);
    encoded_ends.push_back(buf.size());
  }
  const std::int64_t t2 = now_ns();
  // The encode pass appended every frame to one buffer; compare slices.
  const std::span<const std::uint8_t> all = buf.bytes();
  std::size_t index = 0, pos = 0;
  for (const FrameCapture& c : captures) {
    std::size_t begin = 0;
    for (const std::size_t end : c.ends) {
      const std::size_t next = encoded_ends[index];
      if (!decoded[index] || next - pos != end - begin ||
          !std::equal(all.begin() + pos, all.begin() + next,
                      c.bytes.begin() + begin)) {
        ++out.attempted;
        out.fail("captured frame failed the codec round trip");
      }
      pos = next;
      begin = end;
      ++index;
    }
  }
  if (frames > 0) {
    tot.decode_ns.push_back(static_cast<double>(t1 - t0) / frames);
    tot.encode_ns.push_back(static_cast<double>(t2 - t1) / frames);
  }
  tot.frames += frames;
  tot.frame_bytes += bytes;
}

void run_session(std::uint64_t seed, const LiveShape& s, bool traced,
                 SpanLog& spans, SessionTotals& tot, Outcome& out) {
  runtime::ClusterConfig cluster = make_cluster(seed, s);
  const std::uint32_t root = spans.begin(traced ? "session_traced" : "session");
  std::vector<std::unique_ptr<daemon::NodeDaemon>> daemons;
  std::vector<FrameCapture> captures(kNodes);
  const auto construct = [&] {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      daemons.push_back(
          std::make_unique<daemon::NodeDaemon>(cluster, NodeId{n}));
    }
  };
  // Construction is cheap and noisy: time kSetupRepeats builds (binding
  // the same ports each time) and throw them away. The daemons that run
  // are built after the shared epoch is stamped, so set-up time never
  // shortens the session.
  for (std::uint32_t k = 0; k < kSetupRepeats; ++k) {
    tot.setup_s.push_back(timed(spans, "daemon_construct", root, construct));
    daemons.clear();  // closes the sockets before the next build binds
  }
  cluster.clock_epoch_ns = monotonic_ns();
  timed(spans, "daemon_construct_run", root, construct);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    daemon::NodeDaemon& d = *daemons[n];
    if (traced) {
      d.runtime().profiler().enable_timing(true);
      // Replaces the daemon's own receive tap; keep its liveness feed and
      // do the wire oracle's round-trip check offline in replay_frames.
      FrameCapture* cap = &captures[n];
      daemon::FailureDetector* fd = d.failure_detector();
      d.runtime().set_frame_observer(
          [cap, fd](NodeId from, NodeId, bool,
                    std::span<const std::uint8_t> frame, const MessagePtr&) {
            cap->bytes.insert(cap->bytes.end(), frame.begin(), frame.end());
            cap->ends.push_back(cap->bytes.size());
            if (fd != nullptr) fd->note_traffic(from);
          });
    }
  }

  const std::uint32_t run_span = spans.begin("daemon_run", root);
  const double cpu0 = process_cpu_s();
  {
    // jthreads join on every exit from this block, exceptions included.
    std::vector<std::jthread> threads;
    for (std::uint32_t n = 1; n < kNodes; ++n) {
      threads.emplace_back([&, n] {
        const std::uint32_t id = spans.begin("daemon_run_node", run_span);
        daemons[n]->run();
        spans.end(id);
      });
    }
    const std::uint32_t id = spans.begin("daemon_run_node", run_span);
    daemons[0]->run();
    spans.end(id);
  }
  // The session's wall length is fixed by its config; what the runtime,
  // wire and daemon cost shows as the CPU time all daemon threads spent.
  tot.run_s.push_back(process_cpu_s() - cpu0);
  spans.end(run_span);

  // -- correctness and delivery accounting ---------------------------------
  std::vector<std::set<std::uint32_t>> subs(kNodes);
  for (const auto& [node, p] : cluster.subscriptions) {
    subs[node.value()].insert(p.value());
  }
  // (source, seq) → publish record
  std::vector<std::map<std::uint64_t, const daemon::NodeDaemon::PublishRecord*>>
      pubs(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const auto& p : daemons[n]->published()) pubs[n][p.seq] = &p;
    tot.published += static_cast<double>(daemons[n]->published().size());
    tot.offered += s.rate_hz * s.run_s;
  }
  const auto matches = [&](std::uint32_t node,
                           const daemon::NodeDaemon::PublishRecord& p) {
    for (const std::uint32_t pat : p.patterns) {
      if (subs[node].count(pat) != 0) return true;
    }
    return false;
  };
  std::uint64_t expected = 0;
  for (std::uint32_t src = 0; src < kNodes; ++src) {
    for (const auto& [seq, p] : pubs[src]) {
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        if (n != src && matches(n, *p)) ++expected;
      }
    }
  }
  tot.expected += expected;
  out.attempted += expected;

  for (std::uint32_t n = 0; n < kNodes; ++n) {
    daemon::NodeDaemon& d = *daemons[n];
    std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
    for (const auto& rec : d.delivered()) {
      if (!seen.insert({rec.source, rec.seq}).second) {
        out.fail("duplicate delivery at node " + std::to_string(n));
        continue;
      }
      if (rec.source >= kNodes || pubs[rec.source].count(rec.seq) == 0) {
        ++out.attempted;
        out.fail("delivery of an unpublished event at node " +
                 std::to_string(n));
        continue;
      }
      const auto& p = *pubs[rec.source].at(rec.seq);
      if (!matches(n, p)) {
        ++out.attempted;
        out.fail("delivery of a non-matching event at node " +
                 std::to_string(n));
        continue;
      }
      if (rec.source == n) continue;  // self-delivery: not a remote pair
      const double ms = (rec.t_s - p.t_s) * 1e3;
      ++tot.delivered;
      tot.latency_ms.push_back(ms);
      if (ms <= kDeadlineS * 1e3) ++tot.in_deadline;
      if (rec.recovered) {
        ++tot.recovered;
      } else {
        tot.hop_latency_ms.push_back(ms);
      }
    }
    const auto& st = d.runtime().stats();
    for (const auto& [count, what] :
         {std::pair{st.decode_errors, "decode error"},
          std::pair{st.send_failures, "send failure"},
          std::pair{st.queue_overflows, "queue overflow"}}) {
      for (std::uint64_t k = 0; k < count; ++k) {
        ++out.attempted;
        out.fail(std::string(what) + " at node " + std::to_string(n));
      }
    }
    const std::uint64_t checks =
        d.oracles() != nullptr ? d.oracles()->checks() : 0;
    if (checks == 0) {
      ++out.attempted;
      out.fail("oracles saw no traffic at node " + std::to_string(n));
    }
    tot.oracle_checks += checks;
    add_stats(tot.rt, st);
    tot.hotpath += d.runtime().profiler().snapshot();
    if (const GossipStats* g = d.dispatcher().recovery()->gossip_stats()) {
      tot.gossip += *g;
    }
    ++tot.daemons;
  }
  if (traced) {
    timed(spans, "codec_replay", root,
          [&] { replay_frames(captures, tot, out); });
  }
  daemons.clear();  // closes the sockets before the next session binds
  spans.end(root);
}

}  // namespace

bool is_live_workload(const std::string& name) {
  return name == "live-loopback";
}

void run_live_workload(const Options& opt, SpanLog& spans, Outcome& out) {
  const LiveShape s = shape(opt.tiny);
  out.prov("kind", "\"live\"");
  out.prov("nodes", std::to_string(kNodes));
  out.prov("threads_total", std::to_string(kNodes));
  out.prov("publish_rate_hz_per_node", json_number(s.rate_hz));
  out.prov("session_s", json_number(s.settle_s + s.run_s + s.drain_s));
  out.prov("drop_rate", "0.05");
  out.prov("oracles", "true");

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  SessionTotals plain, traced;
  // Untraced: sessions while another is expected to finish inside
  // --seconds (at least two). Traced: alternate traced and untraced
  // sessions so tracing overhead is a paired figure.
  const std::uint32_t min_sessions = 2;
  std::int64_t last_ns = 0;
  for (std::uint32_t i = 0;
       i < min_sessions || now_ns() + last_ns < deadline; ++i) {
    const std::int64_t start = now_ns();
    const bool trace_this = opt.trace && i % 2 == 0;
    run_session(input_seed(opt.seed, i), s, trace_this, spans,
                trace_this ? traced : plain, out);
    last_ns = now_ns() - start;
  }
  out.prov("oracles_live", plain.oracle_checks + traced.oracle_checks > 0
                               ? "true"
                               : "false");

  if (!opt.trace) {
    const SessionTotals& t = plain;
    out.add("run_s", median(t.run_s), "s");
    out.add("setup_s", median(t.setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("delivery_rate",
            ratio(static_cast<double>(t.in_deadline),
                  static_cast<double>(t.expected)),
            "share");
    out.add("eventual_delivery",
            ratio(static_cast<double>(t.delivered),
                  static_cast<double>(t.expected)),
            "share");
    out.add("msgs_per_delivery",
            ratio(static_cast<double>(t.rt.datagrams_sent),
                  static_cast<double>(t.delivered)),
            "count");
    out.add("published_ratio", ratio(t.published, t.offered), "share");
    out.note("deliver_p50_ms", quantile(t.latency_ms, 0.5), "ms");
    out.note("deliver_p99_ms", quantile(t.latency_ms, 0.99), "ms");
    out.note("deliver_samples", static_cast<double>(t.latency_ms.size()),
             "count");
    out.note("sessions", static_cast<double>(t.run_s.size()), "count");
    return;
  }

  const SessionTotals& t = traced;
  const auto& h = t.hotpath;
  const auto ops = [&](HotPhase p) { return static_cast<double>(h[p].ops); };
  const auto ns = [&](HotPhase p) {
    return ratio(static_cast<double>(h[p].ns), static_cast<double>(h[p].ops));
  };
  // Simulator-only figures (sim.*, memory breakdowns, set-up spans, pool
  // and oracle overhead) are absent here and read 0.
  out.add("net.overlay_sends", ops(HotPhase::TransportOverlay), "count");
  out.add("net.overlay_ns_per_send", ns(HotPhase::TransportOverlay), "ns");
  out.add("net.direct_sends", ops(HotPhase::TransportDirect), "count");
  out.add("net.direct_ns_per_send", ns(HotPhase::TransportDirect), "ns");
  out.add("pubsub.dispatch_ops", ops(HotPhase::Dispatch), "count");
  out.add("pubsub.dispatch_ns_per_op", ns(HotPhase::Dispatch), "ns");
  out.add("pubsub.forward_ops", ops(HotPhase::Forward), "count");
  out.add("pubsub.forward_ns_per_op", ns(HotPhase::Forward), "ns");
  out.add("pubsub.control_ops", ops(HotPhase::Control), "count");
  out.add("pubsub.control_ns_per_op", ns(HotPhase::Control), "ns");
  out.add("pubsub.drops_no_link", static_cast<double>(t.rt.drops_no_link),
          "count");
  out.add("gossip.round_ops", ops(HotPhase::GossipRound), "count");
  out.add("gossip.round_ns_per_op", ns(HotPhase::GossipRound), "ns");
  out.add("gossip.handle_ops", ops(HotPhase::GossipHandle), "count");
  out.add("gossip.handle_ns_per_op", ns(HotPhase::GossipHandle), "ns");
  out.add("gossip.cache_ops", ops(HotPhase::CacheOp), "count");
  out.add("gossip.cache_ns_per_op", ns(HotPhase::CacheOp), "ns");
  out.add("gossip.recovered_per_digest",
          ratio(static_cast<double>(t.gossip.events_recovered),
                static_cast<double>(t.gossip.digests_originated +
                                    t.gossip.digests_forwarded)),
          "ratio");
  out.add("gossip.msgs_per_dispatcher",
          ratio(static_cast<double>(t.gossip.digests_originated +
                                    t.gossip.digests_forwarded +
                                    t.gossip.requests_sent +
                                    t.gossip.replies_sent),
                static_cast<double>(t.daemons)),
          "count");
  out.add("oracle.checks", static_cast<double>(t.oracle_checks), "count");

  out.add("wire.frames", static_cast<double>(t.frames), "count");
  out.add("wire.bytes_per_frame",
          ratio(static_cast<double>(t.frame_bytes),
                static_cast<double>(t.frames)),
          "bytes");
  out.add("wire.encode_ns_per_frame", median(t.encode_ns), "ns");
  out.add("wire.decode_ns_per_frame", median(t.decode_ns), "ns");
  out.add("runtime.datagrams_sent", static_cast<double>(t.rt.datagrams_sent),
          "count");
  out.add("runtime.datagrams_received",
          static_cast<double>(t.rt.datagrams_received), "count");
  out.add("runtime.timers_fired", static_cast<double>(t.rt.timers_fired),
          "count");
  out.add("runtime.queue_overflows", static_cast<double>(t.rt.queue_overflows),
          "count");
  out.add("runtime.send_failures", static_cast<double>(t.rt.send_failures),
          "count");
  out.add("runtime.decode_errors", static_cast<double>(t.rt.decode_errors),
          "count");
  out.add("daemon.recovered_share",
          ratio(static_cast<double>(t.recovered),
                static_cast<double>(t.delivered)),
          "share");
  out.add("daemon.hop_p99_ms", quantile(t.hop_latency_ms, 0.99), "ms");
  out.add("daemon.deliver_p50_ms", quantile(t.latency_ms, 0.5), "ms");
  out.add("daemon.deliver_p99_ms", quantile(t.latency_ms, 0.99), "ms");
  out.add("daemon.deliver_samples", static_cast<double>(t.latency_ms.size()),
          "count");
  out.add("trace.overhead_s", median(t.run_s) - median(plain.run_s), "s");
  out.add("trace.overhead_share",
          ratio(median(t.run_s) - median(plain.run_s), median(plain.run_s)),
          "share");
  out.add("trace.run_s", median(t.run_s), "s");
  out.add("trace.untraced_run_s", median(plain.run_s), "s");
  out.add("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace perfbench
