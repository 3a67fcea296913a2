// The dense data-plane containers: NodeTable/IdSet (flat, bitmap-backed)
// and DenseMap/DenseSet (open addressing) — observable behaviour,
// ascending iteration, a seeded differential test against std::map /
// std::set reference models, probe counters, and the packet pool's slab
// reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/data_plane.h"
#include "net/dense_map.h"
#include "net/node_table.h"
#include "sim/rng.h"

namespace ag::net {
namespace {

TEST(NodeTable, InsertFindEraseRoundTrip) {
  NodeTable<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(NodeId{3}), nullptr);

  t[NodeId{3}] = 30;
  auto [v, inserted] = t.try_emplace(NodeId{100}, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 7);
  auto [again, second] = t.try_emplace(NodeId{100}, 99);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 7) << "try_emplace must not clobber";

  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(NodeId{3}), nullptr);
  EXPECT_EQ(*t.find(NodeId{3}), 30);
  EXPECT_TRUE(t.erase(NodeId{3}));
  EXPECT_FALSE(t.erase(NodeId{3})) << "double erase";
  EXPECT_EQ(t.size(), 1u);
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(NodeTable, IterationIsAscending) {
  NodeTable<int> t;
  // Insert deliberately out of order, spanning several bitmap words.
  for (const std::uint32_t k : {200u, 5u, 130u, 0u, 64u, 63u, 65u}) {
    t[NodeId{k}] = static_cast<int>(k);
  }
  std::vector<std::uint32_t> keys;
  t.for_each([&](NodeId id, int& v) {
    keys.push_back(id.value());
    EXPECT_EQ(v, static_cast<int>(id.value()));
  });
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{0, 5, 63, 64, 65, 130, 200}));
}

TEST(NodeTable, EraseIfVisitsAscendingAndErases) {
  NodeTable<int> t;
  for (std::uint32_t k = 0; k < 40; ++k) t[NodeId{k}] = static_cast<int>(k);
  std::vector<std::uint32_t> visited;
  const std::size_t erased = t.erase_if([&](NodeId id, int& v) {
    visited.push_back(id.value());
    return v % 2 == 0;
  });
  EXPECT_EQ(erased, 20u);
  EXPECT_EQ(t.size(), 20u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_FALSE(t.contains(NodeId{0}));
  EXPECT_TRUE(t.contains(NodeId{1}));
}

TEST(NodeTable, ErasedSlotsReleaseCapturedState) {
  // erase() must reset the slot to T{} so captured resources free eagerly.
  NodeTable<std::vector<int>> t;
  t[NodeId{1}] = std::vector<int>(1000, 7);
  EXPECT_TRUE(t.erase(NodeId{1}));
  EXPECT_TRUE(t[NodeId{1}].empty());  // re-created slot starts from T{}
}

TEST(IdSet, SetSemantics) {
  IdSet<GroupId> s;
  EXPECT_TRUE(s.insert(GroupId{1}));
  EXPECT_FALSE(s.insert(GroupId{1}));
  EXPECT_TRUE(s.contains(GroupId{1}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(GroupId{1}));
  EXPECT_FALSE(s.erase(GroupId{1}));
  EXPECT_TRUE(s.empty());
}

TEST(DenseMap, InsertFindEraseWithCollisionsAndTombstones) {
  DenseMap<int> m;
  // Enough keys to force several growth rounds past the 16-slot start.
  for (std::uint64_t k = 0; k < 500; ++k) {
    auto [v, inserted] = m.try_emplace(k * 0x9e3779b9ULL, static_cast<int>(k));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(m.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_NE(m.find(k * 0x9e3779b9ULL), nullptr) << "key " << k;
    EXPECT_EQ(*m.find(k * 0x9e3779b9ULL), static_cast<int>(k));
  }
  // Erase half (tombstones), then re-insert and look everything up again:
  // tombstone reuse and the rebuild path must not lose entries.
  for (std::uint64_t k = 0; k < 500; k += 2) EXPECT_TRUE(m.erase(k * 0x9e3779b9ULL));
  EXPECT_EQ(m.size(), 250u);
  for (std::uint64_t k = 500; k < 900; ++k) {
    m.try_emplace(k * 0x9e3779b9ULL, static_cast<int>(k));
  }
  for (std::uint64_t k = 1; k < 500; k += 2) {
    ASSERT_NE(m.find(k * 0x9e3779b9ULL), nullptr) << "key " << k;
  }
  for (std::uint64_t k = 0; k < 500; k += 2) EXPECT_EQ(m.find(k * 0x9e3779b9ULL), nullptr);
}

TEST(DenseMap, EraseIfPurgesMatchingEntries) {
  DenseMap<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  const std::size_t erased = m.erase_if([](std::uint64_t, int& v) { return v >= 50; });
  EXPECT_EQ(erased, 50u);
  EXPECT_EQ(m.size(), 50u);
  EXPECT_TRUE(m.contains(0));
  EXPECT_FALSE(m.contains(99));
}

TEST(DenseSet, MsgIdKeysRoundTrip) {
  DenseSet s;
  const MsgId a{NodeId{7}, 3};
  const MsgId b{NodeId{3}, 7};  // must not collide with a
  EXPECT_NE(msg_key(a), msg_key(b));
  EXPECT_TRUE(s.insert(msg_key(a)));
  EXPECT_FALSE(s.insert(msg_key(a)));
  EXPECT_FALSE(s.contains(msg_key(b)));
  EXPECT_TRUE(s.erase(msg_key(a)));
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------- differential vs std::map

// NodeTable and IdSet against std::map / std::set driven by one seeded op
// stream. Keys span five bitmap words; every return value and size() is
// compared after each op, and for_each / erase_if must visit exactly the
// model's (ascending) key sequence.
TEST(NodeTableDifferential, MatchesStdMapOnRandomOps) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    sim::Rng rng{seed};
    NodeTable<int> t;
    std::map<std::uint32_t, int> model;
    IdSet<NodeId> set;
    std::set<std::uint32_t> set_model;
    for (int op = 0; op < 20000; ++op) {
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, 319));
      const NodeId id{k};
      const int value = static_cast<int>(rng.uniform_int(-1000, 1000));
      const std::int64_t roll = rng.uniform_int(0, 99);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op << " roll "
                                      << roll << " key " << k);
      if (roll < 25) {
        const auto [v, inserted] = t.try_emplace(id, value);
        const auto [it, model_inserted] = model.try_emplace(k, value);
        ASSERT_EQ(inserted, model_inserted);
        ASSERT_EQ(*v, it->second);
        ASSERT_EQ(set.insert(id), set_model.insert(k).second);
      } else if (roll < 40) {
        int& v = t[id];
        int& m = model[k];
        ASSERT_EQ(v, m);  // a fresh slot must start from T{}, like the model
        v = m = value;
      } else if (roll < 65) {
        const int* v = t.find(id);
        const auto it = model.find(k);
        ASSERT_EQ(v != nullptr, it != model.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        ASSERT_EQ(set.contains(id), set_model.count(k) == 1);
      } else if (roll < 93) {
        ASSERT_EQ(t.erase(id), model.erase(k) == 1);
        ASSERT_EQ(set.erase(id), set_model.erase(k) == 1);
      } else if (roll < 99) {
        const int mod = static_cast<int>(rng.uniform_int(2, 5));
        const auto pred = [mod](std::uint32_t key, int v) {
          return (v + static_cast<int>(key)) % mod == 0;
        };
        std::vector<std::uint32_t> visited;
        std::vector<std::uint32_t> model_visited;
        const std::size_t erased = t.erase_if([&](NodeId key, int& v) {
          visited.push_back(key.value());
          return pred(key.value(), v);
        });
        const std::size_t model_erased = std::erase_if(model, [&](const auto& kv) {
          model_visited.push_back(kv.first);
          return pred(kv.first, kv.second);
        });
        ASSERT_EQ(erased, model_erased);
        ASSERT_EQ(visited, model_visited);
      } else {
        t.clear();
        model.clear();
        set.clear();
        set_model.clear();
      }
      ASSERT_EQ(t.size(), model.size());
      ASSERT_EQ(t.empty(), model.empty());
      ASSERT_EQ(set.size(), set_model.size());
      if (op % 64 == 0) {
        std::vector<std::pair<std::uint32_t, int>> seen;
        t.for_each([&seen](NodeId key, const int& v) { seen.emplace_back(key.value(), v); });
        ASSERT_EQ(seen, (std::vector<std::pair<std::uint32_t, int>>{model.begin(),
                                                                    model.end()}));
        std::vector<std::uint32_t> members;
        set.for_each([&members](NodeId key) { members.push_back(key.value()); });
        ASSERT_EQ(members, (std::vector<std::uint32_t>{set_model.begin(), set_model.end()}));
      }
    }
  }
}

// DenseMap and DenseSet against std::map / std::set. Iteration order is
// unspecified, so erase_if compares the erased key sets and then the full
// contents. The live-size target swings from 400 down to 40, so the
// table doubles several times and then, churning fresh keys at low load,
// rebuilds at the same size to clear its tombstones.
TEST(DenseMapDifferential, MatchesStdMapOnRandomOps) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    sim::Rng rng{seed};
    DenseMap<int> m;
    std::map<std::uint64_t, int> model;
    DenseSet set;
    std::set<std::uint64_t> set_model;
    std::vector<std::uint64_t> keys;  // every key ever drawn, for hits
    const auto expect_same_contents = [&] {
      ASSERT_EQ(m.size(), model.size());
      for (const auto& [key, value] : model) {
        const int* v = m.find(key);
        ASSERT_NE(v, nullptr) << "key " << key;
        ASSERT_EQ(*v, value) << "key " << key;
        ASSERT_EQ(set.contains(key), set_model.count(key) == 1) << "key " << key;
      }
    };
    for (int op = 0; op < 30000; ++op) {
      const std::size_t target = op < 8000 ? 400 : 40;
      std::uint64_t k;
      if (keys.empty() || rng.bernoulli(0.3)) {
        // Fresh sparse key, as the routers pack (origin, seq) pairs.
        k = msg_key({NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 1999))},
                     static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))});
        keys.push_back(k);
      } else {
        // A recently drawn key: mostly live, sometimes already erased.
        const auto n = static_cast<std::int64_t>(keys.size());
        k = keys[static_cast<std::size_t>(rng.uniform_int(std::max<std::int64_t>(0, n - 600),
                                                          n - 1))];
      }
      const int value = static_cast<int>(rng.uniform_int(-1000, 1000));
      const bool grow = model.size() < target;
      const std::int64_t roll = rng.uniform_int(0, 999);
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op << " roll "
                                      << roll << " key " << k);
      if (roll < (grow ? 400 : 250)) {
        const auto [v, inserted] = m.try_emplace(k, value);
        const auto [it, model_inserted] = model.try_emplace(k, value);
        ASSERT_EQ(inserted, model_inserted);
        ASSERT_EQ(*v, it->second);
        ASSERT_EQ(set.insert(k), set_model.insert(k).second);
      } else if (roll < (grow ? 550 : 350)) {
        int& v = m[k];
        int& mv = model[k];
        ASSERT_EQ(v, mv);
        v = mv = value;
      } else if (roll < 650) {
        const int* v = m.find(k);
        const auto it = model.find(k);
        ASSERT_EQ(v != nullptr, it != model.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        ASSERT_EQ(set.contains(k), set_model.count(k) == 1);
      } else if (roll < 990) {
        ASSERT_EQ(m.erase(k), model.erase(k) == 1);
        ASSERT_EQ(set.erase(k), set_model.erase(k) == 1);
      } else if (roll < 998) {
        const auto mod = static_cast<std::uint64_t>(rng.uniform_int(3, 8));
        std::vector<std::uint64_t> erased_keys;
        const std::size_t erased = m.erase_if([&](std::uint64_t key, int&) {
          if (key % mod != 0) return false;
          erased_keys.push_back(key);
          return true;
        });
        std::vector<std::uint64_t> model_erased_keys;
        std::erase_if(model, [&](const auto& kv) {
          if (kv.first % mod != 0) return false;
          model_erased_keys.push_back(kv.first);
          return true;
        });
        for (const std::uint64_t key : model_erased_keys) {
          ASSERT_EQ(set.erase(key), set_model.erase(key) == 1);
        }
        std::sort(erased_keys.begin(), erased_keys.end());
        ASSERT_EQ(erased, model_erased_keys.size());
        ASSERT_EQ(erased_keys, model_erased_keys);
        expect_same_contents();
      } else {
        m.clear();
        model.clear();
        set.clear();
        set_model.clear();
      }
      ASSERT_EQ(m.size(), model.size());
      ASSERT_EQ(m.empty(), model.empty());
      ASSERT_EQ(set.size(), set_model.size());
    }
    expect_same_contents();
  }
}

TEST(DataPlaneCounters, EveryTableOperationIsOneProbe) {
  // The probe counter counts logical API calls, not probe steps: each
  // find/try_emplace/erase (and operator[], via try_emplace) is one.
  const std::uint64_t before = data_plane_counters().table_probes;
  NodeTable<int> t;
  DenseMap<int> m;
  for (std::uint32_t k = 0; k < 50; ++k) {
    t[NodeId{k}] = 1;
    (void)t.find(NodeId{k});
    m[k] = 1;
    (void)m.find(k);
  }
  t.erase(NodeId{0});
  m.erase(0);
  EXPECT_EQ(data_plane_counters().table_probes - before, 4u * 50u + 2u);
}

TEST(PacketPool, ReusesSlabsAndCountsHits) {
  PacketPool& pool = PacketPool::local();
  DataPlaneCounters& c = data_plane_counters();
  Packet p;
  p.src = NodeId{1};
  p.payload = MulticastData{GroupId{1}, NodeId{1}, 0, 64, {}, 0};

  PacketPtr first = pool.make(Packet{p});
  const Packet* slab = first.get();
  first.reset();  // slab returns to the free list
  ASSERT_GT(pool.free_count(), 0u);

  const std::uint64_t hits_before = c.pool_hits;
  PacketPtr second = pool.make(Packet{p});
  EXPECT_EQ(second.get(), slab) << "slab must be recycled LIFO";
  EXPECT_EQ(c.pool_hits, hits_before + 1);
  EXPECT_EQ(second->src, NodeId{1});
}

}  // namespace
}  // namespace ag::net
