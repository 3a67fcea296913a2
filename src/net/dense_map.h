// Small open-addressing hash map for sparse 64-bit keys: (origin, seq)
// message ids, (origin, rreq_id) flood dedup, (group, node) pairs, and
// every table keyed by a node id (key = NodeId::value()). Linear probing
// over a power-of-two slot array with tombstone reuse; a lookup is one
// splitmix64 hash plus a short probe run, with no per-node allocation.
// The slot array is sized by the live entries, not by the id space, so a
// node's per-neighbour or per-destination state costs O(entries) rather
// than O(n).
//
// Iteration (for_each/erase_if) is in unspecified slot order. Expiry
// purges are commutative and use erase_if directly; a caller whose
// effects depend on key order collects what it selects, sorts only that
// and then acts on it. node_table_test checks the map against a std::map
// model.
//
// Contract notes:
//  - find/try_emplace/erase each count one table_probes; for_each and
//    erase_if count none (the same contract as NodeTable).
//  - Only an insert of a new key can rebuild the slot array, so pointers
//    from find()/try_emplace() survive lookups and hits of existing keys.
#ifndef AG_NET_DENSE_MAP_H
#define AG_NET_DENSE_MAP_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/data.h"
#include "net/data_plane.h"
#include "net/ids.h"

namespace ag::net {

// Packs a MsgId into a DenseMap key. Origins are real node ids, so the
// top bits never collide with the empty/tombstone sentinels.
[[nodiscard]] inline std::uint64_t msg_key(const MsgId& id) {
  return (static_cast<std::uint64_t>(id.origin.value()) << 32) | id.seq;
}

// The node id behind a node-keyed table's key (key = NodeId::value()).
[[nodiscard]] inline NodeId node_of(std::uint64_t key) {
  return NodeId{static_cast<std::uint32_t>(key)};
}

template <typename V>
class DenseMap {
 public:
  [[nodiscard]] V* find(std::uint64_t key) {
    ++dpc_->table_probes;
    return lookup(key);
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<DenseMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  // Returns {value, inserted}; the existing value is untouched when the
  // key is already present. Only the insert path may grow the table.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value = V{}) {
    ++dpc_->table_probes;
    assert(key < kTombstone && "DenseMap key collides with sentinel");
    if (V* found = lookup(key)) return {found, false};
    maybe_grow();
    // The key is absent, so the first free slot on its probe run (a
    // tombstone or the terminating empty slot) takes it.
    std::size_t i = index_of(key);
    while (slots_[i].key < kTombstone) i = (i + 1) & mask_;
    Slot& t = slots_[i];
    if (t.key == kTombstone) --tombstones_;
    t.key = key;
    t.value = std::move(value);
    ++count_;
    return {&t.value, true};
  }

  [[nodiscard]] V& operator[](std::uint64_t key) { return *try_emplace(key).first; }

  bool erase(std::uint64_t key) {
    ++dpc_->table_probes;
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) {
        s.key = kTombstone;
        s.value = V{};
        --count_;
        ++tombstones_;
        return true;
      }
      if (s.key == kEmpty) return false;
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  // Drops every entry and releases the slot array.
  void clear() {
    slots_ = Slots{};
    mask_ = 0;
    count_ = 0;
    tombstones_ = 0;
  }

  // Visits live entries in unspecified order; f(key, V&). The callback
  // must not insert into or erase from the map.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.key < kTombstone) f(s.key, s.value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    const_cast<DenseMap*>(this)->for_each(
        [&f](std::uint64_t k, V& v) { f(k, static_cast<const V&>(v)); });
  }

  // Erases entries for which pred(key, V&) returns true, in unspecified
  // order (see header comment). Returns the number erased.
  template <typename F>
  std::size_t erase_if(F&& pred) {
    std::size_t erased = 0;
    for (Slot& s : slots_) {
      if (s.key >= kTombstone) continue;
      if (pred(s.key, s.value)) {
        s.key = kTombstone;
        s.value = V{};
        --count_;
        ++tombstones_;
        ++erased;
      }
    }
    return erased;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kTombstone = ~std::uint64_t{0} - 1;

  struct Slot {
    std::uint64_t key{kEmpty};
    V value{};
  };
  using Slots = std::vector<Slot, TableAllocator<Slot>>;

  [[nodiscard]] V* lookup(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    // splitmix64 finalizer: full-avalanche spread of packed-id keys.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
  }
  void resize_slots(std::size_t size) {
    slots_ = Slots(size);
    mask_ = size - 1;
  }

  void maybe_grow() {
    if (slots_.empty()) {
      resize_slots(16);
      return;
    }
    // Keep load (live + tombstones) below 70%.
    if ((count_ + tombstones_ + 1) * 10 < slots_.size() * 7) return;
    // Rebuild at the smallest power of two (>= 16) that keeps the live
    // entries under half the slots: a full table doubles, a table of
    // tombstones is flushed at its size, and one a purge emptied shrinks.
    std::size_t target = 16;
    while (target <= (count_ + 1) * 2) target *= 2;
    Slots old = std::move(slots_);
    resize_slots(target);
    count_ = 0;
    tombstones_ = 0;
    for (Slot& s : old) {
      if (s.key >= kTombstone) continue;
      std::size_t i = index_of(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      ++count_;
    }
  }

  DataPlaneCounters* dpc_{&data_plane_counters()};
  Slots slots_;
  std::size_t mask_{0};
  std::size_t count_{0};
  std::size_t tombstones_{0};
};

// Set facade over DenseMap for message-id dedup windows.
class DenseSet {
 public:
  bool insert(std::uint64_t key) { return map_.try_emplace(key).second; }
  bool erase(std::uint64_t key) { return map_.erase(key); }
  [[nodiscard]] bool contains(std::uint64_t key) const { return map_.contains(key); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }

 private:
  DenseMap<char> map_;
};

}  // namespace ag::net

#endif  // AG_NET_DENSE_MAP_H
