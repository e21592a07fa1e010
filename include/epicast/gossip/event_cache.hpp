// epicast — the retransmission buffer (β in the paper).
//
// Each dispatcher keeps a bounded cache of events "for which it is either
// the publisher or a subscriber" (§IV-A); retransmission requests are served
// from it. The paper uses FIFO eviction; LRU and random eviction are
// provided for the cache-policy ablation.
//
// Lookup paths (all O(1) expected):
//   * by event id        — serves push requests;
//   * by (source, pattern, seq) — serves pull digests;
//   * ids matching a pattern    — builds push digests (amortized via a
//     per-pattern index, purged eagerly on eviction and lazily on lookup).
// The first two are flat open-addressed tables (common/flat_table.hpp)
// mapping straight to the event's storage slot: a pull-digest probe costs
// one walk over adjacent slots and no heap node, and an insert or eviction
// allocates nothing once the tables have reached their steady size.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "epicast/common/flat_table.hpp"
#include "epicast/common/ids.hpp"
#include "epicast/common/rng.hpp"
#include "epicast/gossip/config.hpp"
#include "epicast/metrics/hotpath_profiler.hpp"
#include "epicast/pubsub/event.hpp"

namespace epicast {

class EventCache {
 public:
  EventCache(std::size_t capacity, CachePolicy policy, Rng rng);

  /// Optional hot-path profiler: every public cache operation counts one
  /// HotPhase::CacheOp. Pass nullptr to detach.
  void set_profiler(HotpathProfiler* profiler) { profiler_ = profiler; }

  /// Inserts an event, evicting per policy if full. Returns false (and does
  /// nothing) if the event is already cached. Precondition: capacity > 0.
  bool insert(const EventPtr& event);

  [[nodiscard]] bool contains(const EventId& id) const;

  /// Event by id, or nullptr. Counts a hit/miss; refreshes recency for LRU.
  [[nodiscard]] EventPtr get(const EventId& id);

  /// Event that the source tagged with (pattern, seq), or nullptr.
  [[nodiscard]] EventPtr find(NodeId source, Pattern pattern, SeqNo seq);

  /// Ids of cached events matching `pattern`, oldest first; at most
  /// `max_entries` (0 = all).
  [[nodiscard]] std::vector<EventId> ids_matching(Pattern pattern,
                                                  std::size_t max_entries);

  /// As above into a caller-owned scratch buffer (cleared first) — the push
  /// round builds one digest per round per node.
  void ids_matching_into(Pattern pattern, std::size_t max_entries,
                         std::vector<EventId>& out);

  /// Total entries across the per-pattern id index, live + stale
  /// (introspection: tests pin the eager-purge bound on this).
  [[nodiscard]] std::size_t pattern_index_entries() const;

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] CachePolicy policy() const { return policy_; }

  /// Bytes owned by the cache's containers (slots + indexes, excluding the
  /// shared events themselves) — per-component memory accounting for the
  /// scale figures. The flat tables count their allocated slots; the
  /// per-pattern index is an estimate.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drops every cached event and all indexes (cold restart). Counters are
  /// kept — a crash does not un-happen the traffic that preceded it.
  void clear();

  /// Every cached event in eviction order (next victim first). Warm-restart
  /// snapshots serialize this; re-inserting the list into an empty cache of
  /// the same capacity reproduces the eviction order exactly.
  [[nodiscard]] std::vector<EventPtr> snapshot_events() const;

  struct Stats {
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct SpKey {
    NodeId source;
    Pattern pattern;
    SeqNo seq;
    friend constexpr bool operator==(const SpKey&, const SpKey&) = default;
  };
  struct SpKeyTraits {
    static constexpr SpKey kEmpty{NodeId::invalid(), Pattern{}, SeqNo{}};
    static std::uint64_t hash(const SpKey& k) noexcept {
      return mix64(((static_cast<std::uint64_t>(k.source.value()) << 32) |
                    k.pattern.value()) *
                       0x9e3779b97f4a7c15ULL ^
                   k.seq.value());
    }
  };

  void evict_one();
  void drop(std::uint32_t slot);
  void index_patterns(const EventData& event, std::uint32_t slot);
  void unindex_patterns(const EventData& event);
  /// Counts a hit on the event in `slot` and refreshes its recency (LRU).
  [[nodiscard]] EventPtr hit(std::uint32_t slot);

  void link_back(std::uint32_t slot);
  void unlink(std::uint32_t slot);

  std::size_t capacity_;
  CachePolicy policy_;
  Rng rng_;
  Stats stats_;
  HotpathProfiler* profiler_ = nullptr;

  /// Eviction-order storage: a flat slot vector threaded with an intrusive
  /// doubly-linked index list (head_ = next victim for FIFO/LRU, tail_ =
  /// newest). Slots recycle through free_, so the steady state allocates
  /// nothing per insert/evict — the caches' insert-evict churn at full β is
  /// the hottest allocation site a scenario has. LRU refresh is an
  /// unlink/link_back pair; Random evicts a uniform element of the dense
  /// slot pool below (`pool_pos` is the node's index in it).
  struct Node {
    EventPtr event;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t pool_pos = kNil;
  };
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  /// Event id → slot.
  FlatTable<EventId, std::uint32_t, EventIdKeyTraits> by_id_;
  /// (source, pattern, seq) → slot, one entry per pattern of each event.
  FlatTable<SpKey, std::uint32_t, SpKeyTraits> by_stream_seq_;
  /// For Random eviction: dense slot vector enabling O(1) uniform sampling.
  std::vector<std::uint32_t> random_pool_;

  /// Per-pattern id index, insertion-ordered. Stale (evicted) ids are
  /// purged eagerly from the deque fronts on every eviction — under FIFO
  /// the victim *is* the front, so the index stays tight at small β — and
  /// lazily elsewhere in ids_matching() (LRU/random scatter).
  std::unordered_map<Pattern, std::deque<EventId>> by_pattern_;
};

}  // namespace epicast
