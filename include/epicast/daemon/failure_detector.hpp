// epicast — heartbeat-based failure detection for the live cluster.
//
// The simulator knows who is alive; a real cluster has to find out. Each
// daemon periodically sends a HeartbeatMessage (Control channel — exempt
// from synthetic ε and Gilbert–Elliott loss, but *not* from blackholes: a
// dead link carries nothing) to every current overlay neighbour, and treats
// any received frame from a peer as proof of life. Silence accumulates in
// missed-interval strikes:
//
//     suspect_after_missed  → suspected:  the recovery protocol's
//                             peer-health table is primed so gossip-round
//                             target selection steers around the peer;
//     dead_after_missed     → confirmed dead: the daemon's route-repair
//                             callback runs (link break + deterministic
//                             detour links via the Reconfigurator path).
//
// Heartbeats carry the sender's incarnation (journal boot count). An
// incarnation jump is a restart observation: the peer died and came back —
// the returned-callback re-attaches its links and re-advertises routes.
//
// Heartbeats double as anti-entropy: each carries a rotating slice of the
// node's witnessed stream watermarks (WitnessedMarks below). The detector
// owns that table because heartbeats are its only reader; the daemon feeds
// it every event the dispatcher accepts. The simulator keeps no such table.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "epicast/common/flat_table.hpp"
#include "epicast/pubsub/dispatcher.hpp"
#include "epicast/pubsub/messages.hpp"
#include "epicast/runtime/async_runtime.hpp"

namespace epicast::daemon {

struct FailureDetectorConfig {
  Duration interval = Duration::millis(250);
  std::uint32_t suspect_after_missed = 3;
  std::uint32_t dead_after_missed = 8;
  /// This node's boot count, carried in every heartbeat.
  std::uint64_t incarnation = 1;
  /// Stream watermarks piggybacked per heartbeat (anti-entropy): each beat
  /// carries the next `marks_per_beat` entries of the detector's
  /// WitnessedMarks, rotating through them. 0 disables the piggyback (pure
  /// liveness beacons) and the table stays empty.
  std::size_t marks_per_beat = 64;
};

/// The highest sequence number witnessed per (source, pattern) stream. A
/// mark means "this seq exists", not "I can serve it": every accepted
/// event advances it, cached or not, subscribed or not. Streams are kept
/// in the order they were first witnessed, and next_slice() rotates
/// through that order, so each mark goes out once per cycle even while new
/// streams appear.
class WitnessedMarks {
 public:
  /// Advances the mark of each of the event's streams.
  void note(const EventData& event);

  /// Appends the next min(max_entries, size()) marks of the rotation to
  /// `out` and moves the rotation past them; O(max_entries).
  void next_slice(std::size_t max_entries, std::vector<StreamMark>& out);

  /// Streams witnessed so far.
  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  /// Keyed by source << 32 | pattern.
  FlatTable<std::uint64_t, std::uint64_t, U64KeyTraits> high_;
  std::vector<std::uint64_t> order_;
  std::size_t cursor_ = 0;  ///< next position of the rotation in order_
};

class FailureDetector {
 public:
  using PeerCallback = std::function<void(NodeId)>;

  FailureDetector(Dispatcher& dispatcher, runtime::AsyncRuntime& rt,
                  FailureDetectorConfig config);

  /// Fired once per peer on suspicion onset / death confirmation / return
  /// (first liveness signal after suspicion or death, or an incarnation
  /// jump). All run inside the event loop.
  void set_on_peer_suspected(PeerCallback cb) { on_suspected_ = std::move(cb); }
  void set_on_peer_dead(PeerCallback cb) { on_dead_ = std::move(cb); }
  void set_on_peer_returned(PeerCallback cb) { on_returned_ = std::move(cb); }

  /// Starts the heartbeat/check timer; every current neighbour gets a
  /// fresh liveness deadline (no instant suspicion at boot).
  void start();
  void stop();

  /// Any frame from `from` proves the process behind it is alive — wired
  /// to the runtime's frame observer so data traffic suppresses false
  /// suspicion even when heartbeats are lost to blackholes one way.
  void note_traffic(NodeId from);

  /// HeartbeatMessage arrived (the dispatcher's heartbeat listener).
  void on_heartbeat(NodeId from, const HeartbeatMessage& hb);

  /// An event this node accepted (the dispatcher's accept listener) or
  /// preloaded from a warm-restart snapshot: advances the witnessed marks
  /// unless marks_per_beat is 0.
  void witness(const EventData& event) {
    if (cfg_.marks_per_beat > 0) marks_.note(event);
  }
  [[nodiscard]] const WitnessedMarks& marks() const { return marks_; }

  [[nodiscard]] bool suspected(NodeId peer) const;
  [[nodiscard]] bool confirmed_dead(NodeId peer) const;
  [[nodiscard]] const FailureDetectorConfig& config() const { return cfg_; }

 private:
  struct PeerState {
    SimTime last_heard;
    std::uint64_t incarnation = 0;  ///< 0 = no heartbeat seen yet
    bool suspected = false;
    bool dead = false;
  };

  void tick();
  void mark_alive(NodeId from);

  Dispatcher& d_;
  runtime::AsyncRuntime& rt_;
  FailureDetectorConfig cfg_;
  PeerCallback on_suspected_;
  PeerCallback on_dead_;
  PeerCallback on_returned_;
  std::unordered_map<std::uint32_t, PeerState> peers_;
  runtime::PeriodicTimer timer_;
  WitnessedMarks marks_;
  std::vector<StreamMark> marks_scratch_;
};

}  // namespace epicast::daemon
