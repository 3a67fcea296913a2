// Small open-addressing hash map for the sparse 64-bit keys the routers
// dedup on — (origin, seq) message ids, (origin, rreq_id) flood dedup,
// (group, node) pairs. Linear probing over a power-of-two slot array with
// tombstone reuse; a lookup is one multiply-shift hash plus a short probe
// run, with no per-node allocation.
//
// Iteration is deliberately restricted to erase_if(), in unspecified
// order: every current use is a commutative expiry purge, so the
// simulation cannot observe slot order. Order-sensitive iteration belongs
// in NodeTable (ascending) or an explicit side structure (HistoryTable's
// FIFO deque). node_table_test checks it against a std::map model.
#ifndef AG_NET_DENSE_MAP_H
#define AG_NET_DENSE_MAP_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/data.h"
#include "net/data_plane.h"

namespace ag::net {

// Packs a MsgId into a DenseMap key. Origins are real node ids, so the
// top bits never collide with the empty/tombstone sentinels.
[[nodiscard]] inline std::uint64_t msg_key(const MsgId& id) {
  return (static_cast<std::uint64_t>(id.origin.value()) << 32) | id.seq;
}

template <typename V>
class DenseMap {
 public:
  [[nodiscard]] V* find(std::uint64_t key) {
    ++dpc_->table_probes;
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<DenseMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  // Returns {value, inserted}; the existing value is untouched when the
  // key is already present.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value = V{}) {
    ++dpc_->table_probes;
    assert(key < kTombstone && "DenseMap key collides with sentinel");
    maybe_grow();
    std::size_t i = index_of(key);
    std::size_t first_tomb = kNoSlot;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == kTombstone && first_tomb == kNoSlot) first_tomb = i;
      if (s.key == kEmpty) {
        const std::size_t target = first_tomb == kNoSlot ? i : first_tomb;
        Slot& t = slots_[target];
        if (t.key == kTombstone) --tombstones_;
        t.key = key;
        t.value = std::move(value);
        ++count_;
        return {&t.value, true};
      }
      i = (i + 1) & mask_;
    }
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

  void clear() {
    slots_.clear();
    mask_ = 0;
    count_ = 0;
    tombstones_ = 0;
  }

  // Erases entries for which pred(key, V&) returns true. Unspecified
  // order — use only for commutative purges (see header comment).
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
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  struct Slot {
    std::uint64_t key{kEmpty};
    V value{};
  };

  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    // splitmix64 finalizer: full-avalanche spread of packed-id keys.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
  }

  void maybe_grow() {
    if (slots_.empty()) {
      slots_.assign(16, Slot{});
      mask_ = 15;
      return;
    }
    // Keep load (live + tombstones) below 70%.
    if ((count_ + tombstones_ + 1) * 10 < slots_.size() * 7) return;
    // Double only when live entries justify it; otherwise rebuild at the
    // same size to flush tombstones.
    const std::size_t target =
        (count_ + 1) * 10 >= slots_.size() * 5 ? slots_.size() * 2 : slots_.size();
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(target, Slot{});
    mask_ = target - 1;
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
  std::vector<Slot> slots_;
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
