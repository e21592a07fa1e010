// epicast — flat open-addressed hash table for small, trivially copyable
// keys and values.
//
// The per-event bookkeeping (the retransmission buffer's indexes, the
// sparse seen-id layout, the oracles' delivery sets) is probed once per
// pattern or delivery of every event a dispatcher handles. Node-based maps
// pay a pointer chase and a heap node per entry there; this table keeps
// (key, value) pairs inline in one power-of-two slot array:
//   * linear probing from the key's hash, so a probe walks adjacent slots;
//   * at most 3/4 of the slots occupied, doubling when an insert would
//     pass that;
//   * backward-shift erase: the entries after an erased one move back into
//     the hole when that brings them nearer their home slot, so the table
//     never holds tombstones and misses stay as short as right after a
//     rebuild.
//
// `Traits` supplies the empty-slot sentinel (a key no caller ever inserts)
// and the hash:
//
//   struct Traits {
//     static constexpr Key kEmpty = ...;
//     static std::uint64_t hash(const Key& k) noexcept;
//   };
//
// With `Value` = NoValue the table is a set: the value takes no slot space.
//
// Pointers returned by find() and try_emplace() stay valid until the next
// try_emplace() or erase().
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "epicast/common/ids.hpp"

namespace epicast {

/// splitmix64 finalizer: every input bit reaches every output bit, so the
/// low bits a power-of-two mask keeps are well mixed.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Traits for keys packed into one 64-bit word whose all-ones value is
/// never used (every packing here puts a NodeId in the high half, and
/// NodeId::invalid() is all ones).
struct U64KeyTraits {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static std::uint64_t hash(std::uint64_t key) noexcept { return mix64(key); }
};

/// Traits for exact EventId keys. NodeId::invalid() never publishes, so
/// the all-ones id is free to mark empty slots.
struct EventIdKeyTraits {
  static constexpr EventId kEmpty{NodeId::invalid(), ~std::uint64_t{0}};
  static std::uint64_t hash(const EventId& id) noexcept {
    return mix64((static_cast<std::uint64_t>(id.source.value()) << 40) ^
                 id.source_seq);
  }
};

/// The value type of a FlatTable used as a set.
struct NoValue {};

template <class Key, class Value, class Traits>
class FlatTable {
 public:
  static constexpr std::size_t kMinSlots = 16;  // power of two

  struct Slot {
    Key key;
    [[no_unique_address]] Value value;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: 0 before the first insert, then a power of two from
  /// kMinSlots up.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Bytes owned beyond the object itself.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  [[nodiscard]] Value* find(const Key& key) {
    const std::size_t i = index_of(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    const std::size_t i = index_of(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return index_of(key) != kNotFound;
  }

  /// Inserts (key, value) unless `key` is present. Returns the stored value
  /// and whether it was inserted (mirrors std::unordered_map::try_emplace).
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == Traits::kEmpty) {
        s.key = key;
        s.value = value;
        ++size_;
        return {&s.value, true};
      }
    }
  }

  /// Inserts or overwrites.
  void assign(const Key& key, const Value& value) {
    *try_emplace(key, value).first = value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(const Key& key) {
    std::size_t hole = index_of(key);
    if (hole == kNotFound) return false;
    const std::size_t mask = slots_.size() - 1;
    // Backward shift: walk the run after the hole; an entry moves into the
    // hole iff the hole lies on its probe path (between its home slot and
    // where it sits now), which keeps every remaining key reachable.
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != Traits::kEmpty;
         j = (j + 1) & mask) {
      const std::size_t displacement = (j - home(slots_[j].key, mask)) & mask;
      if (displacement >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = Traits::kEmpty;
    --size_;
    return true;
  }

  /// Removes every entry; the slot array is kept.
  void clear() {
    for (Slot& s : slots_) s.key = Traits::kEmpty;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] static std::size_t home(const Key& key, std::size_t mask) {
    return static_cast<std::size_t>(Traits::hash(key)) & mask;
  }

  [[nodiscard]] std::size_t index_of(const Key& key) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == key) return i;
      if (s.key == Traits::kEmpty) return kNotFound;
    }
  }

  void rehash(std::size_t slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slot_count, Slot{Traits::kEmpty, Value{}});
    const std::size_t mask = slot_count - 1;
    for (const Slot& s : old) {
      if (s.key == Traits::kEmpty) continue;
      std::size_t i = home(s.key, mask);
      while (slots_[i].key != Traits::kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace epicast
