// Flat per-node (or per-group) state table: a vector indexed by
// Id::value() with a compact occupancy bitmap. Replaces the per-node
// std::unordered_map in the MAC/router/gossip hot paths — node ids are
// small and dense (0..n-1), so a lookup is one bounds check plus one bit
// test, and iteration is a bitmap scan in ascending key order.
//
// An ordered std::map is the reference model: node_table_test drives
// both with one seeded op stream and compares every result and the
// ascending visit order.
//
// Contract notes:
//  - Keys must be real ids (never invalid()/broadcast()); enforced by
//    assert. Values must be default-constructible; erase() resets the
//    slot to T{}.
//  - Growth (first insert of a key beyond capacity) moves values: like
//    std::vector, pointers from find() are invalidated by inserts of new
//    keys, unlike std::unordered_map. Call sites were audited for this.
//  - for_each()/erase_if() visit keys in ascending order; the callback
//    must not insert into the table it is iterating (erasing the visited
//    entry through erase_if is fine).
#ifndef AG_NET_NODE_TABLE_H
#define AG_NET_NODE_TABLE_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/data_plane.h"
#include "net/ids.h"

namespace ag::net {

template <typename T, typename Key = NodeId>
class NodeTable {
 public:
  [[nodiscard]] T* find(Key key) {
    ++dpc_->table_probes;
    const std::uint32_t k = key.value();
    return occupied(k) ? &slots_[k] : nullptr;
  }
  [[nodiscard]] const T* find(Key key) const {
    return const_cast<NodeTable*>(this)->find(key);
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  // Inserts a default-constructed value when the key is absent.
  [[nodiscard]] T& operator[](Key key) { return *try_emplace(key).first; }

  // Returns {value, inserted}. The existing value is untouched when the
  // key is already present.
  std::pair<T*, bool> try_emplace(Key key, T value = T{}) {
    ++dpc_->table_probes;
    const std::uint32_t k = checked(key);
    grow_to(k);
    if (occupied(k)) return {&slots_[k], false};
    set_occupied(k);
    ++count_;
    slots_[k] = std::move(value);
    return {&slots_[k], true};
  }

  bool erase(Key key) {
    ++dpc_->table_probes;
    const std::uint32_t k = key.value();
    if (!occupied(k)) return false;
    clear_occupied(k);
    slots_[k] = T{};  // free captured state eagerly
    --count_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void clear() {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        slots_[w * 64 + static_cast<std::size_t>(b)] = T{};
      }
      occupied_[w] = 0;
    }
    count_ = 0;
  }

  // Visits entries in ascending key order; f(Key, T&).
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const std::uint32_t k = static_cast<std::uint32_t>(w * 64) +
                                static_cast<std::uint32_t>(b);
        f(Key{k}, slots_[k]);
      }
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    const_cast<NodeTable*>(this)->for_each(
        [&f](Key k, T& v) { f(k, static_cast<const T&>(v)); });
  }

  // Erases entries for which pred(Key, T&) returns true, visiting in
  // ascending key order. Returns the number erased.
  template <typename F>
  std::size_t erase_if(F&& pred) {
    std::size_t erased = 0;
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const std::uint32_t k = static_cast<std::uint32_t>(w * 64) +
                                static_cast<std::uint32_t>(b);
        if (pred(Key{k}, slots_[k])) {
          occupied_[w] &= ~(std::uint64_t{1} << b);
          slots_[k] = T{};
          --count_;
          ++erased;
        }
      }
    }
    return erased;
  }

 private:
  // Node/group ids are assigned densely from 0; anything near the
  // invalid()/broadcast() sentinels is a bug, and a huge key would
  // allocate a proportionally huge slot vector.
  static constexpr std::uint32_t kMaxKey = 1u << 22;

  static std::uint32_t checked(Key key) {
    assert(key.value() < kMaxKey && "NodeTable key out of dense range");
    return key.value();
  }

  [[nodiscard]] bool occupied(std::uint32_t k) const {
    return k < slots_.size() &&
           (occupied_[k / 64] & (std::uint64_t{1} << (k % 64))) != 0;
  }
  void set_occupied(std::uint32_t k) {
    occupied_[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  void clear_occupied(std::uint32_t k) {
    occupied_[k / 64] &= ~(std::uint64_t{1} << (k % 64));
  }
  void grow_to(std::uint32_t k) {
    if (k < slots_.size()) return;
    std::size_t target = slots_.size() < 16 ? 16 : slots_.size() * 2;
    if (target <= k) target = static_cast<std::size_t>(k) + 1;
    slots_.resize(target);
    occupied_.resize((target + 63) / 64, 0);
  }

  DataPlaneCounters* dpc_{&data_plane_counters()};
  std::vector<T> slots_;
  std::vector<std::uint64_t> occupied_;
  std::size_t count_{0};
};

// Set-of-ids facade over NodeTable (group membership, etc.).
template <typename Key = NodeId>
class IdSet {
 public:
  bool insert(Key key) { return table_.try_emplace(key).second; }
  bool erase(Key key) { return table_.erase(key); }
  [[nodiscard]] bool contains(Key key) const { return table_.contains(key); }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }
  // Visits members in ascending key order; f(Key).
  template <typename F>
  void for_each(F&& f) const {
    table_.for_each([&f](Key k, const char&) { f(k); });
  }

 private:
  NodeTable<char, Key> table_;
};

}  // namespace ag::net

#endif  // AG_NET_NODE_TABLE_H
