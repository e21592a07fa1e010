#include "epicast/oracle/checks.hpp"

#include <algorithm>
#include <string>

#include "epicast/common/assert.hpp"
#include "epicast/gossip/event_cache.hpp"
#include "epicast/gossip/messages.hpp"
#include "epicast/pubsub/network.hpp"
#include "epicast/wire/codec.hpp"
#include "epicast/wire/error.hpp"

namespace epicast::oracle {
namespace {

std::string event_label(const EventId& id) {
  std::string label = "(";
  label += std::to_string(id.source.value());
  label += '#';
  label += std::to_string(id.source_seq);
  label += ')';
  return label;
}

/// The retransmission buffer `node` exposes, or nullptr (no recovery
/// protocol wired yet, or one that keeps no cache).
const EventCache* cache_of(const OracleContext& ctx, NodeId node) {
  if (ctx.network == nullptr) return nullptr;
  const RecoveryProtocol* rec = ctx.network->node(node).recovery();
  return rec != nullptr ? rec->event_cache() : nullptr;
}

/// Adds `id` to `set`; returns false if it was already present.
bool insert_id(EventIdSet& set, const EventId& id) {
  EPICAST_ASSERT_MSG(id.source.valid(), "event id without a source");
  return set.try_emplace(id, NoValue{}).second;
}

}  // namespace

bool NodeEventSet::insert(NodeId node, const EventId& id) {
  EPICAST_ASSERT(node.valid());
  if (node.value() >= by_node_.size()) by_node_.resize(node.value() + 1);
  return insert_id(by_node_[node.value()], id);
}

// -- 1. unique-delivery -------------------------------------------------------

void UniqueDeliveryOracle::on_delivery(NodeId node, const EventPtr& event,
                                       bool /*recovered*/) {
  checked();
  if (!delivered_.insert(node, event->id())) {
    fail(node, "duplicate delivery of event " + event_label(event->id()));
  }
}

// -- 2. matching-delivery -----------------------------------------------------

void MatchingDeliveryOracle::on_delivery(NodeId node, const EventPtr& event,
                                         bool /*recovered*/) {
  if (ctx().network == nullptr) return;
  checked();
  if (!ctx().network->node(node).table().matches_local(*event)) {
    fail(node, "delivery of event " + event_label(event->id()) +
                   " to a node with no matching local subscription");
  }
}

// -- 3. conservation ----------------------------------------------------------

void ConservationOracle::on_publish(const EventPtr& event) {
  (void)insert_id(published_, event->id());
}

void ConservationOracle::on_delivery(NodeId node, const EventPtr& event,
                                     bool recovered) {
  const EventId& id = event->id();
  checked();
  if (!published_.contains(id)) {
    // The publisher's local delivery happens inside publish(), before the
    // workload's publish listener runs (see the class comment).
    const bool publisher_self = node == event->source() &&
                                ctx().sim != nullptr &&
                                ctx().sim->now() == event->published_at();
    if (publisher_self) {
      (void)insert_id(published_, id);
    } else {
      fail(node, "delivery of unpublished event " + event_label(id));
      return;
    }
  }
  checked();
  if (ctx().sim != nullptr && ctx().sim->now() < event->published_at()) {
    fail(node, "event " + event_label(id) + " delivered before its publish " +
                   "instant " + to_string(event->published_at()));
  }
  if (recovered) {
    checked();
    if (!offered_.contains(node, id)) {
      fail(node, "recovered delivery of event " + event_label(id) +
                     " without a preceding retransmission reply to this node");
    }
  }
}

void ConservationOracle::on_send(NodeId /*from*/, NodeId to, const Message& msg,
                                 bool /*overlay*/) {
  // The class test keeps the cast off the event path; the cast still
  // guards against foreign messages of the reply class.
  if (msg.message_class() != MessageClass::GossipReply) return;
  const auto* reply = dynamic_cast<const RecoveryReplyMessage*>(&msg);
  if (reply == nullptr) return;
  for (const EventPtr& ev : reply->events()) {
    (void)offered_.insert(to, ev->id());
  }
}

// -- 4. buffer-bound ----------------------------------------------------------

void BufferBoundOracle::on_send(NodeId from, NodeId /*to*/, const Message& msg,
                                bool /*overlay*/) {
  if (!is_gossip(msg.message_class())) return;
  if (const EventCache* cache = cache_of(ctx(), from)) {
    verify_occupancy(from, cache->size(), cache->capacity());
  }
}

void BufferBoundOracle::on_scenario_end() {
  if (ctx().network == nullptr) return;
  ctx().network->for_each([this](Dispatcher& d) {
    if (d.recovery() == nullptr) return;
    if (const EventCache* cache = d.recovery()->event_cache()) {
      verify_occupancy(d.id(), cache->size(), cache->capacity());
    }
  });
}

void BufferBoundOracle::verify_occupancy(NodeId node, std::size_t size,
                                         std::size_t capacity) {
  checked();
  if (size > capacity) {
    fail(node, "retransmission buffer holds " + std::to_string(size) +
                   " events, exceeding beta=" + std::to_string(capacity));
  }
}

// -- 5. digest-coverage -------------------------------------------------------

void DigestCoverageOracle::on_send(NodeId from, NodeId /*to*/,
                                   const Message& msg, bool /*overlay*/) {
  // As in ConservationOracle::on_send: the class first, a cast only on a
  // match.
  const MessageClass cls = msg.message_class();
  if (cls == MessageClass::GossipDigest) {
    const auto* digest = dynamic_cast<const PushDigestMessage*>(&msg);
    // Only originated digests (forwarders relay the originator's ids).
    if (digest == nullptr || digest->hops() != 0 ||
        digest->gossiper() != from) {
      return;
    }
    const EventCache* cache = cache_of(ctx(), from);
    if (cache == nullptr) return;
    for (const EventId& id : digest->ids()) {
      checked();
      if (!cache->contains(id)) {
        fail(from, "push digest advertises event " + event_label(id) +
                       " absent from the sender's buffer");
      }
    }
  } else if (cls == MessageClass::GossipReply) {
    const auto* reply = dynamic_cast<const RecoveryReplyMessage*>(&msg);
    if (reply == nullptr) return;
    const EventCache* cache = cache_of(ctx(), from);
    if (cache == nullptr) return;
    for (const EventPtr& ev : reply->events()) {
      checked();
      if (!cache->contains(ev->id())) {
        fail(from, "recovery reply carries event " + event_label(ev->id()) +
                       " absent from the sender's buffer");
      }
    }
  }
}

// -- 6. wire-round-trip -------------------------------------------------------

void WireRoundTripOracle::on_send(NodeId from, NodeId /*to*/,
                                  const Message& msg, bool /*overlay*/) {
  if (ctx().sizing != SizingMode::Wire) return;
  verify_frame(from, msg);
}

void WireRoundTripOracle::verify_frame(NodeId node, const Message& msg) {
  if (!wire::Codec::try_kind_of(msg)) return;  // foreign subclass — no frame
  checked();
  encode_buf_.clear();
  wire::Codec::encode(msg, encode_buf_);
  if (encode_buf_.size() != msg.wire_size_bytes()) {
    fail(node, "wire_size_bytes()=" + std::to_string(msg.wire_size_bytes()) +
                   " disagrees with the encoded frame (" +
                   std::to_string(encode_buf_.size()) + " bytes)");
  }
  verify_bytes(node, encode_buf_.bytes());
}

void WireRoundTripOracle::verify_bytes(NodeId node,
                                       std::span<const std::uint8_t> frame) {
  checked();
  const wire::Decoded decoded = wire::Codec::decode(frame);
  if (!decoded.ok()) {
    fail(node, std::string("wire frame fails to decode: ") +
                   wire::to_string(decoded.error()));
    return;
  }
  reencode_buf_.clear();
  wire::Codec::encode(*decoded.message(), reencode_buf_);
  const auto again = reencode_buf_.bytes();
  if (!std::equal(again.begin(), again.end(), frame.begin(), frame.end())) {
    fail(node, "decode/re-encode does not reproduce the frame bytes");
  }
}

}  // namespace epicast::oracle
