// epicast — one dispatching server of the content-based pub-sub network.
//
// Implements the best-effort behaviour of §II:
//   * subscription forwarding with per-direction duplicate suppression,
//     and tree-pruning unsubscription;
//   * reverse-path event routing along subscription routes;
//   * duplicate suppression by event id;
//   * local delivery to the (implicit) clients, reported via a listener.
//
// The optional RecoveryProtocol (epicast/gossip) is notified of every
// accepted event and receives all gossip-class traffic; recovered events
// re-enter through accept_recovered(). An optional accept listener sees
// every accepted event too.
//
// Clients are not modelled (paper §IV-A): subscribe()/publish() are invoked
// directly on the dispatcher, which "is a subscriber if at least one of its
// clients is".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/common/message_pool.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/pubsub/recovery.hpp"
#include "epicast/pubsub/seen_set.hpp"
#include "epicast/pubsub/subscription_table.hpp"
#include "epicast/runtime/runtime.hpp"

namespace epicast {

struct DispatcherConfig {
  /// Payload size used by publish() unless overridden per call.
  std::size_t default_payload_bytes = 1000;
  /// Append traversed dispatcher addresses to event messages (needed by
  /// publisher-based and combined pull, §III-B).
  bool record_routes = false;
};

class Dispatcher final : public TransportReceiver {
 public:
  /// The dispatcher talks to its environment exclusively through the
  /// runtime seam: SimRuntime in simulation, AsyncRuntime on real sockets.
  Dispatcher(NodeId id, runtime::Runtime& rt, DispatcherConfig config);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] runtime::Runtime& runtime() { return rt_; }
  /// Current time, message pool, and hot-path profiler of the runtime —
  /// cached references, so the event hot path pays no virtual dispatch.
  [[nodiscard]] SimTime now() const { return clock_.now(); }
  [[nodiscard]] MessagePool& pool() { return pool_; }
  [[nodiscard]] HotpathProfiler& profiler() { return prof_; }
  [[nodiscard]] SubscriptionTable& table() { return table_; }
  [[nodiscard]] const SubscriptionTable& table() const { return table_; }
  [[nodiscard]] const DispatcherConfig& config() const { return config_; }
  /// Deterministic per-dispatcher random stream (shared with its recovery
  /// protocol).
  [[nodiscard]] Rng& rng() { return rng_; }

  // -- client-facing API ----------------------------------------------------

  /// Subscribes this dispatcher to `p` and floods the subscription.
  void subscribe(Pattern p);

  /// Marks the local subscription without flooding it — used by the oracle
  /// subscription bootstrap at scale, where PubSubNetwork::rebuild_routes()
  /// installs the converged routes directly instead of simulating O(Π·N)
  /// subscription floods.
  void subscribe_local(Pattern p) { table_.add_local(p); }

  /// Removes the local subscription and prunes routes that are no longer
  /// needed anywhere behind this dispatcher.
  void unsubscribe(Pattern p);

  /// Publishes an event whose content is `content` (distinct patterns).
  /// Assigns the global id and the per-(source, pattern) sequence numbers,
  /// delivers locally if subscribed, and forwards along subscription routes.
  EventPtr publish(const std::vector<Pattern>& content);
  EventPtr publish(const std::vector<Pattern>& content,
                   std::size_t payload_bytes);

  // -- recovery wiring ------------------------------------------------------

  void set_recovery(std::unique_ptr<RecoveryProtocol> recovery);
  [[nodiscard]] RecoveryProtocol* recovery() { return recovery_.get(); }

  /// Called for every local delivery: on first reception of an event that
  /// matches a local subscription. `recovered` distinguishes deliveries
  /// made possible by the recovery machinery.
  using DeliveryListener =
      std::function<void(NodeId node, const EventPtr&, bool recovered)>;
  void set_delivery_listener(DeliveryListener listener) {
    on_delivery_ = std::move(listener);
  }

  /// Called for every event this dispatcher accepts — first reception of a
  /// local publish, a forwarded event or a recovered one — after the local
  /// delivery and the recovery protocol have seen it, whether or not it
  /// matches a local subscription. The daemon feeds its heartbeat
  /// watermarks from here; the simulator installs none.
  using AcceptListener = std::function<void(const EventPtr&)>;
  void set_accept_listener(AcceptListener listener) {
    on_accept_ = std::move(listener);
  }

  /// Called for every HeartbeatMessage arriving on the overlay (daemon-mode
  /// liveness beacons). Heartbeats never reach handle_control: without a
  /// listener they are simply absorbed.
  using HeartbeatListener =
      std::function<void(NodeId from, const HeartbeatMessage&)>;
  void set_heartbeat_listener(HeartbeatListener listener) {
    on_heartbeat_ = std::move(listener);
  }

  // -- API used by recovery protocols --------------------------------------

  /// True if this dispatcher already received (or published) the event.
  [[nodiscard]] bool has_seen(const EventId& id) const {
    return seen_.contains(id);
  }

  /// Injects an event obtained through recovery. Duplicates are ignored.
  /// Returns true if the event was new here.
  bool accept_recovered(const EventPtr& event);

  // -- crash-restart journal replay (daemon mode) ---------------------------

  /// Marks `id` as already received without delivering or forwarding —
  /// journal replay rebuilds the duplicate-suppression set of a restarted
  /// daemon so re-gossiped events it delivered in a previous incarnation
  /// are not delivered twice.
  void note_seen(const EventId& id) { seen_.insert(id); }

  /// Restores the publish counters of a restarted daemon so its next
  /// publish continues the id sequence instead of reusing ids the cluster
  /// has already seen (which note_seen would then suppress everywhere).
  void restore_sequences(
      std::uint64_t next_source_seq,
      const std::unordered_map<Pattern, std::uint64_t>& next_pattern_seq) {
    next_source_seq_ = next_source_seq;
    next_pattern_seq_ = next_pattern_seq;
  }

  /// Convenience senders (from this node).
  void send_overlay(NodeId to, MessagePtr msg) {
    tr_.send_overlay(id_, to, std::move(msg));
  }
  void send_direct(NodeId to, MessagePtr msg) {
    tr_.send_direct(id_, to, std::move(msg));
  }

  /// Current overlay neighbours (invalidated by topology mutations).
  [[nodiscard]] std::span<const NodeId> neighbors() const {
    return tr_.neighbors(id_);
  }

  /// True iff the overlay currently links this node to `other`.
  [[nodiscard]] bool has_link_to(NodeId other) const {
    return tr_.has_link(id_, other);
  }

  // -- route-rebuild support (PubSubNetwork) --------------------------------

  /// Records that sub(p) was (or counts as) sent towards `neighbor`
  /// — duplicate-suppression state of subscription forwarding.
  void note_sub_sent(Pattern p, NodeId neighbor);
  void clear_sub_sent();

  // -- distributed reconfiguration (protocol mode) ----------------------------
  // The message-level reaction to overlay changes, in the spirit of the
  // reconfiguration protocol of paper ref [7]. The alternative is
  // PubSubNetwork::rebuild_routes(), which installs the converged outcome
  // instantly (the library default).

  /// The link to `neighbor` vanished: drop its routes and suppression
  /// marks, then retract subscriptions in directions that no longer lead
  /// to any subscriber.
  void handle_link_break(NodeId neighbor);

  /// A link to `neighbor` appeared: advertise every pattern for which a
  /// subscriber exists on this side, so routes grow across the new link.
  void handle_link_add(NodeId neighbor);

  // -- TransportReceiver ----------------------------------------------------

  void on_overlay_message(NodeId from, const MessagePtr& msg) override;
  void on_direct_message(NodeId from, const MessagePtr& msg) override;

  // -- introspection ---------------------------------------------------------

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;            ///< local deliveries, any path
    std::uint64_t delivered_recovered = 0;  ///< subset via recovery
    std::uint64_t duplicates = 0;           ///< suppressed re-receptions
    std::uint64_t forwarded = 0;            ///< event copies sent downstream
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Bytes owned by routing state: the subscription table plus the
  /// per-neighbour duplicate-suppression masks.
  [[nodiscard]] std::size_t routing_memory_bytes() const;

  /// Bytes owned by the event duplicate-suppression set.
  [[nodiscard]] std::size_t seen_memory_bytes() const {
    return seen_.memory_bytes();
  }

 private:
  void handle_event(NodeId from, const EventMessage& msg);
  void handle_control(NodeId from, const SubscribeMessage& msg);
  /// Common path for every first-time acceptance of an event.
  void accept_event(const EventPtr& event,
                    const RecoveryProtocol::EventContext& ctx);
  void forward_event(const EventPtr& event, NodeId exclude,
                     const std::vector<NodeId>& route_so_far);
  /// Sends unsub(p) in directions that no longer lead to any subscriber.
  void maybe_propagate_unsub(Pattern p, NodeId skip);
  [[nodiscard]] bool sub_sent(Pattern p, NodeId neighbor) const;
  struct SubSentMarks;
  [[nodiscard]] const SubSentMarks* find_sub_sent(NodeId neighbor) const;

  NodeId id_;
  runtime::Runtime& rt_;
  /// Hot-path caches of rt_'s accessors (one virtual call at construction
  /// instead of two per send/now/alloc).
  runtime::Transport& tr_;
  const runtime::Clock& clock_;
  MessagePool& pool_;
  HotpathProfiler& prof_;
  DispatcherConfig config_;
  Rng rng_;
  SubscriptionTable table_;
  std::unique_ptr<RecoveryProtocol> recovery_;
  DeliveryListener on_delivery_;
  AcceptListener on_accept_;
  HeartbeatListener on_heartbeat_;

  SeenSet seen_;
  /// Duplicate-suppression state of subscription forwarding: per neighbour
  /// (sorted by NodeId), the patterns a sub() was sent towards. A pattern
  /// bitmask per direction instead of a per-pattern hash map — O(degree ·
  /// Π/8) bytes, the layout that keeps 10⁴-node scenarios in budget.
  struct SubSentMarks {
    NodeId neighbor;
    PatternSet patterns;
  };
  std::vector<SubSentMarks> sub_sent_;

  std::uint64_t next_source_seq_ = 0;
  std::unordered_map<Pattern, std::uint64_t> next_pattern_seq_;
  Stats stats_;

  /// Scratch for forward_event: sends are asynchronous (the transport
  /// schedules delivery), so no callee re-enters forwarding while this is
  /// in use.
  std::vector<NodeId> forward_targets_scratch_;
};

}  // namespace epicast
