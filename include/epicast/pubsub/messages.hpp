// epicast — concrete wire messages of the pub-sub layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"
#include "epicast/net/message.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

/// An event travelling the dispatching tree. The payload is shared; the
/// per-hop `route` (used by publisher-based pull, §III-B) is copied and
/// extended at each hop when route recording is enabled.
class EventMessage final : public Message {
 public:
  EventMessage(EventPtr event, std::vector<NodeId> route)
      : event_(std::move(event)), route_(std::move(route)) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::Event;
  }
  [[nodiscard]] std::size_t size_bytes() const override {
    return event_->payload_bytes();
  }

  [[nodiscard]] const EventPtr& event() const { return event_; }

  /// Dispatchers traversed so far, publisher first. Empty when route
  /// recording is disabled.
  [[nodiscard]] const std::vector<NodeId>& route() const { return route_; }

 private:
  EventPtr event_;
  std::vector<NodeId> route_;
};

/// One per-stream high-watermark: "sequence numbers for (source, pattern)
/// exist up to and including seq". Carried piggyback on heartbeats so the
/// liveness layer doubles as anti-entropy: a subscriber whose sequence-gap
/// detector would otherwise never learn about a loss (the *last* event of a
/// stream, or a whole outage window with no successor event) hears about it
/// from a neighbour's watermark and can pull it.
struct StreamMark {
  NodeId source;
  Pattern pattern;
  SeqNo seq;
  friend constexpr bool operator==(const StreamMark&,
                                   const StreamMark&) = default;
};

/// Liveness beacon of the live-cluster failure detector (daemon mode): each
/// node periodically sends one to every overlay neighbour on the Control
/// channel. `incarnation` counts the sender's process lifetimes (1 on first
/// boot, bumped on every restart) so a receiver can tell a recovered peer
/// from one that never died — an incarnation jump is a restart observation.
/// `marks` is a rotating slice of the sender's witnessed stream watermarks
/// (daemon::WitnessedMarks; may be empty). The simulator never sends
/// these; they exist for real-socket deployments where no global scheduler
/// knows who is alive.
class HeartbeatMessage final : public Message {
 public:
  static constexpr std::size_t kWireBytes = 16;
  static constexpr std::size_t kMarkBytes = 8;

  explicit HeartbeatMessage(std::uint64_t incarnation,
                            std::vector<StreamMark> marks = {})
      : incarnation_(incarnation), marks_(std::move(marks)) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::Control;
  }
  [[nodiscard]] std::size_t size_bytes() const override {
    return kWireBytes + marks_.size() * kMarkBytes;
  }

  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  [[nodiscard]] const std::vector<StreamMark>& marks() const { return marks_; }

 private:
  std::uint64_t incarnation_;
  std::vector<StreamMark> marks_;
};

/// Subscription-forwarding control message (subscribe or unsubscribe).
class SubscribeMessage final : public Message {
 public:
  static constexpr std::size_t kWireBytes = 64;

  SubscribeMessage(Pattern pattern, bool subscribe)
      : pattern_(pattern), subscribe_(subscribe) {}

  [[nodiscard]] MessageClass message_class() const override {
    return MessageClass::Control;
  }
  [[nodiscard]] std::size_t size_bytes() const override { return kWireBytes; }

  [[nodiscard]] Pattern pattern() const { return pattern_; }
  [[nodiscard]] bool is_subscribe() const { return subscribe_; }

 private:
  Pattern pattern_;
  bool subscribe_;
};

}  // namespace epicast
