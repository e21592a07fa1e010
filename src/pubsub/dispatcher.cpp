#include "epicast/pubsub/dispatcher.hpp"

#include <algorithm>
#include <utility>

#include "epicast/common/assert.hpp"
#include "epicast/common/logging.hpp"
#include "epicast/common/message_pool.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"

namespace epicast {

Dispatcher::Dispatcher(NodeId id, runtime::Runtime& rt,
                       DispatcherConfig config)
    : id_(id),
      rt_(rt),
      tr_(rt.transport()),
      clock_(rt.clock()),
      pool_(rt.pool()),
      prof_(rt.profiler()),
      config_(config),
      rng_(rt.fork_rng()),
      seen_(rt.transport().node_count()) {
  tr_.attach(id_, *this);
}

void Dispatcher::set_recovery(std::unique_ptr<RecoveryProtocol> recovery) {
  recovery_ = std::move(recovery);
}

// ---------------------------------------------------------------------------
// Subscription forwarding (paper §II)

const Dispatcher::SubSentMarks* Dispatcher::find_sub_sent(
    NodeId neighbor) const {
  auto it = std::lower_bound(sub_sent_.begin(), sub_sent_.end(), neighbor,
                             [](const SubSentMarks& s, NodeId n) {
                               return s.neighbor < n;
                             });
  if (it == sub_sent_.end() || it->neighbor != neighbor) return nullptr;
  return &*it;
}

bool Dispatcher::sub_sent(Pattern p, NodeId neighbor) const {
  const SubSentMarks* s = find_sub_sent(neighbor);
  return s != nullptr && s->patterns.test(p);
}

void Dispatcher::note_sub_sent(Pattern p, NodeId neighbor) {
  auto it = std::lower_bound(sub_sent_.begin(), sub_sent_.end(), neighbor,
                             [](const SubSentMarks& s, NodeId n) {
                               return s.neighbor < n;
                             });
  if (it == sub_sent_.end() || it->neighbor != neighbor) {
    it = sub_sent_.insert(it, SubSentMarks{neighbor, PatternSet{}});
  }
  it->patterns.set(p);
}

void Dispatcher::clear_sub_sent() { sub_sent_.clear(); }

void Dispatcher::subscribe(Pattern p) {
  table_.add_local(p);
  // Flood towards every direction not already covered by a previous
  // propagation of the same pattern ("avoid forwarding the same event
  // pattern in the same direction"). Messages are immutable, so one pooled
  // frame serves every direction.
  MessagePtr sub;
  for (NodeId m : neighbors()) {
    if (sub_sent(p, m)) continue;
    note_sub_sent(p, m);
    if (!sub) {
      sub = make_pooled<SubscribeMessage>(pool_, p, /*subscribe=*/true);
    }
    send_overlay(m, sub);
  }
}

void Dispatcher::unsubscribe(Pattern p) {
  if (!table_.remove_local(p)) return;
  maybe_propagate_unsub(p, NodeId::invalid());
}

void Dispatcher::maybe_propagate_unsub(Pattern p, NodeId skip) {
  // Retract sub(p) from every direction m for which no subscriber remains
  // reachable through us: we are not local, and no route entry arrives from
  // a neighbour other than m itself. Marks are kept per neighbour, so this
  // visits directions in ascending NodeId order.
  MessagePtr unsub;
  bool any_empty = false;
  for (SubSentMarks& s : sub_sent_) {
    if (s.neighbor == skip || !s.patterns.test(p)) continue;
    if (table_.has_local(p)) continue;
    bool interest_elsewhere = false;
    for (NodeId hop : table_.route_targets(p, s.neighbor)) {
      (void)hop;
      interest_elsewhere = true;
      break;
    }
    if (interest_elsewhere) continue;
    s.patterns.clear(p);
    any_empty = any_empty || s.patterns.none();
    if (!unsub) {
      unsub =
          make_pooled<SubscribeMessage>(pool_, p, /*subscribe=*/false);
    }
    send_overlay(s.neighbor, unsub);
  }
  if (any_empty) {
    std::erase_if(sub_sent_,
                  [](const SubSentMarks& s) { return s.patterns.none(); });
  }
}

void Dispatcher::handle_link_break(NodeId neighbor) {
  // The suppression marks towards the vanished neighbour are void: if a
  // link to it (or towards its side) reappears, subscriptions must be able
  // to flow again.
  auto marks = std::lower_bound(sub_sent_.begin(), sub_sent_.end(), neighbor,
                                [](const SubSentMarks& s, NodeId n) {
                                  return s.neighbor < n;
                                });
  if (marks != sub_sent_.end() && marks->neighbor == neighbor) {
    sub_sent_.erase(marks);
  }

  // Routes through the broken link are gone; for every affected pattern,
  // directions that no longer lead to any subscriber get a retraction,
  // which prunes the stale path hop by hop (the unsubscription machinery
  // of §II doubles as the repair's flush phase).
  std::vector<Pattern> affected;
  for (Pattern p : table_.known_patterns()) {
    if (table_.has_route(p, neighbor)) affected.push_back(p);
  }
  table_.remove_neighbor(neighbor);
  for (Pattern p : affected) {
    maybe_propagate_unsub(p, NodeId::invalid());
  }
}

void Dispatcher::handle_link_add(NodeId neighbor) {
  // Advertise every pattern with interest on this side of the new link:
  // a local subscription, or a route arriving from some other direction.
  for (Pattern p : table_.known_patterns()) {
    const bool interest = table_.has_local(p) ||
                          !table_.route_targets(p, neighbor).empty();
    if (!interest || sub_sent(p, neighbor)) continue;
    note_sub_sent(p, neighbor);
    send_overlay(neighbor, make_pooled<SubscribeMessage>(pool_, p,
                                                         /*subscribe=*/true));
  }
}

void Dispatcher::handle_control(NodeId from, const SubscribeMessage& msg) {
  HotpathProfiler::Scope scope(prof_, HotPhase::Control);
  const Pattern p = msg.pattern();
  if (msg.is_subscribe()) {
    table_.add_route(p, from);
    MessagePtr sub;
    for (NodeId m : neighbors()) {
      if (m == from || sub_sent(p, m)) continue;
      note_sub_sent(p, m);
      if (!sub) {
        sub =
            make_pooled<SubscribeMessage>(pool_, p, /*subscribe=*/true);
      }
      send_overlay(m, sub);
    }
  } else {
    table_.remove_route(p, from);
    maybe_propagate_unsub(p, from);
  }
}

// ---------------------------------------------------------------------------
// Event publication and routing

EventPtr Dispatcher::publish(const std::vector<Pattern>& content) {
  return publish(content, config_.default_payload_bytes);
}

EventPtr Dispatcher::publish(const std::vector<Pattern>& content,
                             std::size_t payload_bytes) {
  EPICAST_ASSERT_MSG(!content.empty(), "event content must be non-empty");
  std::vector<PatternSeq> patterns;
  patterns.reserve(content.size());
  for (Pattern p : content) {
    // Per-(source, pattern) sequence numbers start at 1 so that SeqNo{0}
    // can mean "nothing received yet" in loss detectors.
    const std::uint64_t seq = ++next_pattern_seq_[p];
    patterns.push_back(PatternSeq{p, SeqNo{seq}});
  }
  auto event = make_pooled<EventData>(
      pool_, EventId{id_, next_source_seq_++}, std::move(patterns),
      payload_bytes, now());
  ++stats_.published;

  seen_.insert(event->id());
  RecoveryProtocol::EventContext ctx;
  ctx.from = NodeId::invalid();
  ctx.local_publish = true;
  if (config_.record_routes) ctx.route = {id_};
  accept_event(event, ctx);
  forward_event(event, NodeId::invalid(), ctx.route);
  return event;
}

void Dispatcher::accept_event(const EventPtr& event,
                              const RecoveryProtocol::EventContext& ctx) {
  if (table_.matches_local(*event)) {
    ++stats_.delivered;
    if (ctx.recovered) ++stats_.delivered_recovered;
    if (on_delivery_) on_delivery_(id_, event, ctx.recovered);
  }
  if (recovery_) recovery_->on_event(event, ctx);
  if (on_accept_) on_accept_(event);
}

void Dispatcher::forward_event(const EventPtr& event, NodeId exclude,
                               const std::vector<NodeId>& route_so_far) {
  HotpathProfiler::Scope scope(prof_, HotPhase::Forward);
  std::vector<NodeId>& targets = forward_targets_scratch_;
  table_.route_targets_into(*event, exclude, targets);
  if (targets.empty()) return;

  std::vector<NodeId> route;
  if (config_.record_routes) {
    route = route_so_far;
    if (route.empty() || route.back() != id_) route.push_back(id_);
  }
  // Every target receives the same (event, route): one pooled frame, shared.
  const MessagePtr frame =
      make_pooled<EventMessage>(pool_, event, std::move(route));
  for (NodeId to : targets) {
    ++stats_.forwarded;
    send_overlay(to, frame);
  }
}

void Dispatcher::handle_event(NodeId from, const EventMessage& msg) {
  HotpathProfiler::Scope scope(prof_, HotPhase::Dispatch);
  const EventPtr& event = msg.event();
  if (!seen_.insert(event->id())) {
    ++stats_.duplicates;
    return;
  }
  RecoveryProtocol::EventContext ctx;
  ctx.from = from;
  ctx.route = msg.route();
  accept_event(event, ctx);
  forward_event(event, from, msg.route());
}

bool Dispatcher::accept_recovered(const EventPtr& event) {
  if (!seen_.insert(event->id())) {
    ++stats_.duplicates;
    return false;
  }
  RecoveryProtocol::EventContext ctx;
  ctx.from = NodeId::invalid();
  ctx.recovered = true;
  accept_event(event, ctx);
  // Recovered events are not re-forwarded: recovery is a per-dispatcher
  // affair (§III-B); downstream dispatchers run their own gossip.
  return true;
}

std::size_t Dispatcher::routing_memory_bytes() const {
  std::size_t bytes = table_.memory_bytes();
  for (const SubSentMarks& s : sub_sent_) {
    bytes += sizeof(SubSentMarks) + s.patterns.memory_bytes();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Transport callbacks

void Dispatcher::on_overlay_message(NodeId from, const MessagePtr& msg) {
  switch (msg->message_class()) {
    case MessageClass::Event:
      handle_event(from, static_cast<const EventMessage&>(*msg));
      return;
    case MessageClass::Control:
      // Two control messages share the class: heartbeats (daemon-mode
      // liveness, routed to the failure detector) and subscription
      // forwarding. Discriminate by type before the narrowing cast.
      if (const auto* hb = dynamic_cast<const HeartbeatMessage*>(msg.get())) {
        if (on_heartbeat_) on_heartbeat_(from, *hb);
        return;
      }
      handle_control(from, static_cast<const SubscribeMessage&>(*msg));
      return;
    case MessageClass::GossipDigest:
    case MessageClass::GossipRequest:
    case MessageClass::GossipReply:
      if (recovery_) recovery_->on_gossip(from, msg);
      return;
  }
  EPICAST_UNREACHABLE("unknown message class");
}

void Dispatcher::on_direct_message(NodeId from, const MessagePtr& msg) {
  EPICAST_ASSERT_MSG(is_gossip(msg->message_class()),
                     "only gossip traffic uses the out-of-band channel");
  if (recovery_) recovery_->on_gossip(from, msg);
}

}  // namespace epicast
