#include "epicast/gossip/event_cache.hpp"

#include <algorithm>

#include "epicast/common/assert.hpp"

namespace epicast {

EventCache::EventCache(std::size_t capacity, CachePolicy policy, Rng rng)
    : capacity_(capacity), policy_(policy), rng_(rng) {
  EPICAST_ASSERT_MSG(capacity > 0, "cache capacity must be positive");
  // The cache runs at exactly `capacity` entries in steady state; reserving
  // the slot vectors up front keeps the insert-evict churn
  // reallocation-free. The flat tables grow on demand instead: filling
  // them here would touch every page for caches that never fill up, and
  // they stop growing once the cache is full.
  nodes_.reserve(capacity);
  if (policy == CachePolicy::Random) random_pool_.reserve(capacity);
}

void EventCache::link_back(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.prev = tail_;
  n.next = kNil;
  if (tail_ != kNil) {
    nodes_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void EventCache::unlink(std::uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

bool EventCache::insert(const EventPtr& event) {
  EPICAST_ASSERT(event != nullptr);
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  if (by_id_.contains(event->id())) return false;
  while (by_id_.size() >= capacity_) evict_one();

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[slot].event = event;
  link_back(slot);
  by_id_.try_emplace(event->id(), slot);
  if (policy_ == CachePolicy::Random) {
    nodes_[slot].pool_pos = static_cast<std::uint32_t>(random_pool_.size());
    random_pool_.push_back(slot);
  }
  index_patterns(*event, slot);
  ++stats_.insertions;
  return true;
}

void EventCache::index_patterns(const EventData& event, std::uint32_t slot) {
  for (const PatternSeq& ps : event.patterns()) {
    by_stream_seq_.assign(SpKey{event.source(), ps.pattern, ps.seq}, slot);
    by_pattern_[ps.pattern].push_back(event.id());
  }
}

void EventCache::unindex_patterns(const EventData& event) {
  // Precondition (see drop()): the event is already out of by_id_, so its
  // ids count as stale below.
  for (const PatternSeq& ps : event.patterns()) {
    by_stream_seq_.erase(SpKey{event.source(), ps.pattern, ps.seq});
    // Eager head purge: under FIFO eviction the victim sits at the front
    // of its pattern deques, so the index cannot grow unboundedly at small
    // β. Stale ids in the middle (LRU/random) fall to ids_matching()'s
    // lazy purge.
    auto bucket = by_pattern_.find(ps.pattern);
    if (bucket == by_pattern_.end()) continue;
    std::deque<EventId>& ids = bucket->second;
    while (!ids.empty() && !by_id_.contains(ids.front())) ids.pop_front();
    if (ids.empty()) by_pattern_.erase(bucket);
  }
}

void EventCache::evict_one() {
  EPICAST_ASSERT(head_ != kNil);
  // FIFO and LRU evict the head.
  drop(policy_ == CachePolicy::Random
           ? random_pool_[rng_.next_below(random_pool_.size())]
           : head_);
  ++stats_.evictions;
}

void EventCache::drop(std::uint32_t slot) {
  // Remove from by_id_ before unindexing so the eager purge sees the
  // victim's own ids as stale.
  const EventPtr victim = std::move(nodes_[slot].event);
  unlink(slot);
  free_.push_back(slot);
  by_id_.erase(victim->id());
  unindex_patterns(*victim);
  if (policy_ == CachePolicy::Random) {
    // Swap-pop keeps the sampling pool dense.
    const std::uint32_t pos = nodes_[slot].pool_pos;
    const std::uint32_t last = random_pool_.back();
    random_pool_[pos] = last;
    nodes_[last].pool_pos = pos;
    random_pool_.pop_back();
  }
}

void EventCache::clear() {
  nodes_.clear();
  free_.clear();
  head_ = kNil;
  tail_ = kNil;
  by_id_.clear();
  by_stream_seq_.clear();
  random_pool_.clear();
  by_pattern_.clear();
}

std::vector<EventPtr> EventCache::snapshot_events() const {
  std::vector<EventPtr> out;
  out.reserve(by_id_.size());
  for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
    out.push_back(nodes_[i].event);
  }
  return out;
}

bool EventCache::contains(const EventId& id) const {
  return by_id_.contains(id);
}

EventPtr EventCache::hit(std::uint32_t slot) {
  ++stats_.hits;
  if (policy_ == CachePolicy::Lru && slot != tail_) {
    unlink(slot);  // refresh recency
    link_back(slot);
  }
  return nodes_[slot].event;
}

EventPtr EventCache::get(const EventId& id) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  const std::uint32_t* slot = by_id_.find(id);
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  return hit(*slot);
}

EventPtr EventCache::find(NodeId source, Pattern pattern, SeqNo seq) {
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  const std::uint32_t* slot = by_stream_seq_.find(SpKey{source, pattern, seq});
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  return hit(*slot);
}

std::vector<EventId> EventCache::ids_matching(Pattern pattern,
                                              std::size_t max_entries) {
  std::vector<EventId> out;
  ids_matching_into(pattern, max_entries, out);
  return out;
}

void EventCache::ids_matching_into(Pattern pattern, std::size_t max_entries,
                                   std::vector<EventId>& out) {
  out.clear();
  HotpathProfiler::MaybeScope scope(profiler_, HotPhase::CacheOp);
  auto bucket = by_pattern_.find(pattern);
  if (bucket == by_pattern_.end()) return;

  std::deque<EventId>& ids = bucket->second;
  if (policy_ == CachePolicy::Fifo) {
    // FIFO invariant: every eviction removes the globally oldest event,
    // whose ids sit at the fronts of its own pattern deques — the eager
    // purge in unindex_patterns() strips them immediately, so the deques
    // hold live ids only and no per-id liveness probe is needed. Copy the
    // newest max_entries straight out (they are the ones receivers most
    // likely miss and the ones that survive longest in our own buffer).
    const std::size_t n = (max_entries != 0 && ids.size() > max_entries)
                              ? max_entries
                              : ids.size();
    out.insert(out.end(), ids.end() - static_cast<std::ptrdiff_t>(n),
               ids.end());
    return;
  }
  // Lazy purge: evicted ids are dropped as they are encountered (LRU and
  // random eviction scatter stale ids through the deque).
  std::size_t live = 0;
  for (const EventId& id : ids) {
    if (!by_id_.contains(id)) continue;
    out.push_back(id);
    ++live;
  }
  if (live * 2 < ids.size()) {
    // Compact when more than half the bucket is stale (LRU/random scatter).
    std::deque<EventId> fresh(out.begin(), out.end());
    ids.swap(fresh);
  } else {
    while (!ids.empty() && !by_id_.contains(ids.front())) ids.pop_front();
  }
  if (max_entries != 0 && out.size() > max_entries) {
    // Keep the newest entries: they are the ones receivers most likely miss
    // and the ones that will survive longest in our own buffer.
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(max_entries));
  }
}

std::size_t EventCache::pattern_index_entries() const {
  std::size_t n = 0;
  for (const auto& [p, ids] : by_pattern_) n += ids.size();
  return n;
}

std::size_t EventCache::memory_bytes() const {
  // Hash-map nodes carry roughly a bucket pointer + hash + next alongside
  // the payload; 16 bytes approximates that overhead across libstdc++/libc++.
  constexpr std::size_t kMapOverhead = 16;
  std::size_t bytes = nodes_.capacity() * sizeof(Node);
  bytes += free_.capacity() * sizeof(std::uint32_t);
  bytes += by_id_.memory_bytes();
  bytes += by_stream_seq_.memory_bytes();
  bytes += random_pool_.capacity() * sizeof(std::uint32_t);
  for (const auto& [p, ids] : by_pattern_) {
    bytes += sizeof(p) + kMapOverhead + ids.size() * sizeof(EventId);
  }
  return bytes;
}

}  // namespace epicast
