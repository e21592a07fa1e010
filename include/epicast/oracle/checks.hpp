// epicast — the built-in conformance oracles.
//
// Six safety properties of the paper's model, checked live during every
// oracle-enabled run (see oracle/oracle.hpp for the wiring):
//
//   1. unique-delivery    — at most one delivery per (event, subscriber);
//   2. matching-delivery  — deliveries only reach locally subscribed nodes;
//   3. conservation       — delivered ⊆ published (never before the publish
//                           instant), and every *recovered* delivery was
//                           preceded by a retransmission reply carrying that
//                           event to that node;
//   4. buffer-bound       — retransmission-buffer occupancy never exceeds β;
//   5. digest-coverage    — originated push digests advertise only events
//                           the sender actually buffers, and recovery
//                           replies carry only events the sender buffers;
//   6. wire-round-trip    — under SizingMode::Wire, every encodable frame
//                           decodes back and re-encodes to identical bytes,
//                           and its size matches wire_size_bytes().
//
// Each oracle also exposes its core check as a public verify_* method, so
// the self-tests can prove it fires by feeding violating inputs directly —
// the live hooks funnel into the same methods.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "epicast/common/flat_table.hpp"
#include "epicast/oracle/oracle.hpp"
#include "epicast/wire/buffer.hpp"

namespace epicast::oracle {

/// A set of exact event ids.
using EventIdSet = FlatTable<EventId, NoValue, EventIdKeyTraits>;

/// A set of (event, node) pairs: one flat set of exact event ids per node,
/// indexed by the node id.
class NodeEventSet {
 public:
  /// Adds the pair; returns false if it was already present.
  bool insert(NodeId node, const EventId& id);
  [[nodiscard]] bool contains(NodeId node, const EventId& id) const {
    return node.value() < by_node_.size() &&
           by_node_[node.value()].contains(id);
  }

 private:
  std::vector<EventIdSet> by_node_;
};

/// 1. No duplicate delivery per (event, subscriber) — the dispatcher's
/// duplicate suppression (seen-set + accept_recovered) must hold under
/// every recovery algorithm, churn, and loss pattern.
class UniqueDeliveryOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override { return "unique-delivery"; }
  void on_delivery(NodeId node, const EventPtr& event, bool recovered) override;

 private:
  NodeEventSet delivered_;
};

/// 2. Delivery only to matching subscribers: the delivering node's
/// subscription table must match the event's content locally.
class MatchingDeliveryOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override {
    return "matching-delivery";
  }
  void on_delivery(NodeId node, const EventPtr& event, bool recovered) override;
};

/// 3. Event conservation. delivered ⊆ published: every delivered event was
/// published, no earlier than its publish instant. recovered ⊆ previously
/// lost is not directly observable (a loss leaves no trace at the loser),
/// so the enforced form is causal: a recovered delivery of event e at node
/// n requires a prior RecoveryReplyMessage send carrying e to n — recovered
/// events can only enter through the retransmission machinery.
///
/// The publisher's own local delivery happens inside Dispatcher::publish(),
/// before the workload's publish listener runs; a first delivery at the
/// event's source with the event's own publish stamp is therefore accepted
/// as the publish observation.
class ConservationOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override { return "conservation"; }
  void on_publish(const EventPtr& event) override;
  void on_delivery(NodeId node, const EventPtr& event, bool recovered) override;
  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;

 private:
  EventIdSet published_;
  /// (event, destination) pairs offered via a retransmission reply.
  NodeEventSet offered_;
};

/// 4. Buffer occupancy ≤ β. Checked on every gossip send of a node exposing
/// its cache (RecoveryProtocol::event_cache()) and once more per node at
/// scenario end.
class BufferBoundOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override { return "buffer-bound"; }
  /// Stateless and reads only the *sender's* cache — must run inline on the
  /// sending lane (a barrier-deferred read could see later evictions).
  [[nodiscard]] bool concurrent_safe() const override { return true; }
  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;
  void on_scenario_end() override;

  /// The core predicate: occupancy within the bound. Public so self-tests
  /// can feed a violating occupancy directly.
  void verify_occupancy(NodeId node, std::size_t size, std::size_t capacity);
};

/// 5. Gossip digests only reference buffered events. Enforced on the sends
/// where the claim is synchronous with the cache read:
///   * an *originated* push digest (gossiper == sender, hops == 0) — its
///     ids were just read from the sender's cache. Forwarded digests keep
///     the originator's ids and are exempt (the forwarder never claimed to
///     buffer them);
///   * every recovery reply — its events were just fetched from the
///     sender's cache.
class DigestCoverageOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override { return "digest-coverage"; }
  /// Stateless and reads only the sender's own cache; the digest/cache
  /// agreement is only meaningful synchronously with the send.
  [[nodiscard]] bool concurrent_safe() const override { return true; }
  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;
};

/// 6. Wire-frame round-trip identity (SizingMode::Wire only): every message
/// with a frame format must encode, decode back without error, re-encode to
/// the identical byte string, and report encode()'s size as its
/// wire_size_bytes().
class WireRoundTripOracle final : public Oracle {
 public:
  [[nodiscard]] const char* name() const override { return "wire-round-trip"; }
  void on_send(NodeId from, NodeId to, const Message& msg,
               bool overlay) override;

  /// Encodes `msg` (if the codec has a frame for it) and round-trips the
  /// bytes. Public for self-tests.
  void verify_frame(NodeId node, const Message& msg);

  /// Round-trips an already encoded frame: decode must succeed and
  /// re-encode must reproduce `frame` exactly. Public so self-tests can
  /// feed corrupted bytes.
  void verify_bytes(NodeId node, std::span<const std::uint8_t> frame);

 private:
  wire::WireBuffer encode_buf_;
  wire::WireBuffer reencode_buf_;
};

}  // namespace epicast::oracle
