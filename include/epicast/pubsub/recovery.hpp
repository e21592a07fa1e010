// epicast — interface between the best-effort dispatcher and an epidemic
// recovery protocol.
//
// The paper's algorithms sit *on top of* a best-effort content-based
// publish-subscribe system (§III): the dispatcher notifies its recovery
// protocol of every accepted event (so it can cache and detect losses) and
// hands it every gossip-class message; the protocol injects recovered events
// back via Dispatcher::accept_recovered. Concrete implementations live in
// epicast/gossip.
#pragma once

#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/fault/restart_policy.hpp"
#include "epicast/net/message.hpp"
#include "epicast/pubsub/event.hpp"
#include "epicast/pubsub/messages.hpp"

namespace epicast {

struct GossipStats;
class EventCache;

class RecoveryProtocol {
 public:
  virtual ~RecoveryProtocol() = default;

  /// How an event reached this dispatcher.
  struct EventContext {
    /// Upstream neighbour, or invalid() for a local publish or a recovery.
    NodeId from;
    /// Dispatchers traversed (publisher first, sender last); empty unless
    /// route recording is enabled and the event arrived via the overlay.
    std::vector<NodeId> route;
    /// The dispatcher itself published this event.
    bool local_publish = false;
    /// The event arrived via the recovery machinery, not normal routing.
    bool recovered = false;
  };

  /// Begins periodic activity (gossip rounds). Called once after wiring.
  virtual void start() {}

  /// Stops periodic activity.
  virtual void stop() {}

  /// The node hosting this protocol came back from a crash (the protocol
  /// was stop()ped at crash time; start() follows this call). Cold restarts
  /// must drop recovery-layer soft state — event cache, loss watermarks,
  /// pending-loss and route buffers — as a real process losing its memory
  /// would; Warm restarts keep everything. The dispatcher's delivery-dedup
  /// state is durable and survives either way.
  virtual void on_restart(fault::RestartPolicy /*policy*/) {}

  /// Liveness signal from the environment (daemon mode: the failure
  /// detector heard a heartbeat or any traffic from `peer`). Clears
  /// suspicion bookkeeping so round-target pruning stops avoiding it.
  virtual void on_peer_alive(NodeId /*peer*/) {}

  /// The environment suspects `peer` is down (daemon mode: missed
  /// heartbeats). Protocols with peer-health tracking mark it suspect so
  /// gossip-round target selection steers around it.
  virtual void on_peer_suspected(NodeId /*peer*/) {}

  /// Seeds the retransmission buffer with events recovered from a
  /// warm-restart snapshot, before start(). Protocols without a cache
  /// ignore it.
  virtual void preload_cache(const std::vector<EventPtr>& /*events*/) {}

  /// A neighbour's heartbeat carried stream watermarks: anything it has
  /// seen beyond this node's own expectation is a loss this node would
  /// never detect from sequence gaps alone (tail of a stream, outage
  /// window with no successor). Pull protocols enqueue the difference for
  /// normal recovery; others ignore it.
  virtual void on_stream_marks(const std::vector<StreamMark>& /*marks*/) {}

  /// A new (never seen before) event was accepted by the dispatcher.
  virtual void on_event(const EventPtr& event, const EventContext& ctx) = 0;

  /// A gossip-class message arrived (digest over the overlay, or
  /// request/reply over the out-of-band channel).
  virtual void on_gossip(NodeId from, const MessagePtr& msg) = 0;

  /// Human-readable protocol name for reports.
  [[nodiscard]] virtual const char* name() const = 0;

  /// The gossip counters of this protocol, or nullptr for protocols that
  /// keep none (e.g. the no-recovery baseline). Lets aggregation code sum
  /// stats without downcasting to a concrete protocol type.
  [[nodiscard]] virtual const GossipStats* gossip_stats() const {
    return nullptr;
  }

  /// The retransmission buffer (β) of this protocol, or nullptr for
  /// protocols that keep none. Read-only introspection for the metrics and
  /// conformance-oracle layers (buffer-bound and digest-coverage checks).
  [[nodiscard]] virtual const EventCache* event_cache() const {
    return nullptr;
  }
};

}  // namespace epicast
