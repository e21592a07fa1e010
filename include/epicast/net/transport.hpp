// epicast — message delivery over the overlay and out-of-band channels.
//
// Two channels, mirroring the paper's model (§III-B):
//
//  * the **overlay channel** carries event, control, and gossip-digest
//    traffic hop-by-hop along tree links, subject to the link model
//    (serialization, propagation, Bernoulli loss ε). A send over a link that
//    no longer exists — stale routes during a reconfiguration — is dropped,
//    as is a message in flight when its link breaks.
//
//  * the **direct channel** is the out-of-band unicast transport ("not
//    necessarily reliable, e.g. UDP-based") used for retransmission
//    requests and replies. It is independent of the overlay topology and
//    has its own latency band and loss rate.
//
// Control traffic (subscriptions) defaults to lossless, modelling the
// TCP-backed control connections real dispatching networks use.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/net/link_model.hpp"
#include "epicast/net/message.hpp"
#include "epicast/net/topology.hpp"
// TransportReceiver and TransportObserver moved to the runtime seam (they
// are shared with the socket backend); re-exported here for existing users.
#include "epicast/runtime/transport.hpp"
#include "epicast/sim/simulator.hpp"

namespace epicast {

struct TransportConfig {
  LinkParams link;                    ///< overlay link behaviour
  bool control_lossless = true;       ///< subscriptions ride a reliable channel
  Duration direct_latency_min = Duration::micros(500);
  Duration direct_latency_max = Duration::millis(2);
  double direct_loss_rate = 0.0;      ///< out-of-band loss
  /// Which message size the link model charges: the configured nominal
  /// constants (paper §IV-E accounting, the default) or the codec-computed
  /// wire frame size. Starts at default_sizing_mode().
  SizingMode sizing = default_sizing_mode();
};

class Transport {
 public:
  /// The transport keeps references to `sim` and `topology`; both must
  /// outlive it.
  Transport(Simulator& sim, Topology& topology, TransportConfig config);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers the receiver for `node`. Must be called for every node
  /// before traffic addressed to it arrives.
  void attach(NodeId node, TransportReceiver& receiver);

  /// Registers an additional observer (metrics, tracing); all registered
  /// observers see every send/loss/drop, in registration order. During
  /// threaded windows, observers whose concurrent_safe() is false observe
  /// deferred replays at the window barrier instead of inline calls (same
  /// per-observer order; see TransportObserver).
  void add_observer(TransportObserver& observer) {
    observers_.push_back(&observer);
    if (!observer.concurrent_safe()) have_deferred_observers_ = true;
  }

  /// Deterministic fault injection (FaultController, tests, failure-injection
  /// examples): return false to drop that send. Filters stack — every
  /// registered filter is consulted in registration order and any one of them
  /// may drop. Evaluated before the stochastic loss draw; dropped sends are
  /// reported to the observer as losses. `overlay` distinguishes the two
  /// channels (true = overlay link, false = out-of-band).
  using FaultFilter = std::function<bool(NodeId from, NodeId to,
                                         const Message& msg, bool overlay)>;
  void add_fault_filter(FaultFilter filter) {
    faults_.push_back(std::move(filter));
  }

  /// Reroutes delivery events. By default an arrival is scheduled on the
  /// simulator heap; the sharded engine installs a router that sends it
  /// through the cross-shard mailbox grid instead. The loss draws, delay
  /// computation, and observer callbacks are unaffected — only where the
  /// delivery callback waits changes.
  using ArrivalRouter =
      std::function<void(NodeId to, Duration delay, Scheduler::Callback cb)>;
  void set_arrival_router(ArrivalRouter router) {
    router_ = std::move(router);
  }

  /// Sends over the overlay link (from → to). If the link does not exist
  /// the message is dropped (stale-route drop).
  void send_overlay(NodeId from, NodeId to, MessagePtr msg);

  /// Sends over the out-of-band channel. `from == to` is a programming
  /// error — recovery never gossips with itself.
  void send_direct(NodeId from, NodeId to, MessagePtr msg);

  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] Topology& topology() { return topology_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  /// Link-behaviour knobs (FaultController's bandwidth degradation).
  [[nodiscard]] LinkModel& link_model() { return link_model_; }

 private:
  TransportReceiver& receiver_for(NodeId node) const;
  bool faults_allow(NodeId from, NodeId to, const Message& msg,
                    bool overlay) const;
  /// Observer fan-out, lane-aware: outside parallel windows every observer
  /// fires inline in registration order; under a worker lane the
  /// concurrent-safe ones fire inline and the rest are deferred to the
  /// window barrier (the MessagePtr keeps the message alive until replay).
  void notify_send(NodeId from, NodeId to, const MessagePtr& msg,
                   bool overlay);
  void notify_loss(NodeId from, NodeId to, const MessagePtr& msg,
                   bool overlay);
  void notify_drop_no_link(NodeId from, NodeId to, const MessagePtr& msg);

  Simulator& sim_;
  Topology& topology_;
  TransportConfig config_;
  LinkModel link_model_;
  /// One direct-channel stream (loss + latency draws) per sender node; a
  /// node's direct sends all execute on its own engine lane, so threaded
  /// windows consume these streams in serial order without locking.
  std::vector<Rng> direct_rngs_;
  std::vector<TransportReceiver*> receivers_;
  std::vector<TransportObserver*> observers_;
  bool have_deferred_observers_ = false;
  std::vector<FaultFilter> faults_;
  ArrivalRouter router_;
};

}  // namespace epicast
