#include "aodv/route_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "aodv/neighbor_table.h"
#include "sim/rng.h"

namespace ag::aodv {
namespace {

const net::NodeId kDest{9};
const net::NodeId kHopA{1};
const net::NodeId kHopB{2};
const sim::SimTime kT0 = sim::SimTime::seconds(10);
const sim::SimTime kLater = sim::SimTime::seconds(20);

TEST(RouteTable, OfferCreatesEntry) {
  RouteTable rt;
  EXPECT_TRUE(rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater));
  RouteEntry* e = rt.find_valid(kDest, kT0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, kHopA);
  EXPECT_EQ(e->hops, 3);
  EXPECT_EQ(e->seq, net::SeqNo{5});
}

TEST(RouteTable, FresherSequenceReplaces) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  EXPECT_TRUE(rt.offer(kDest, net::SeqNo{6}, true, 7, kHopB, kLater));
  EXPECT_EQ(rt.find(kDest)->next_hop, kHopB);  // fresher wins despite more hops
}

TEST(RouteTable, StaleSequenceRejected) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  EXPECT_FALSE(rt.offer(kDest, net::SeqNo{4}, true, 1, kHopB, kLater));
  EXPECT_EQ(rt.find(kDest)->next_hop, kHopA);
}

TEST(RouteTable, EqualSequenceShorterPathReplaces) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  EXPECT_TRUE(rt.offer(kDest, net::SeqNo{5}, true, 2, kHopB, kLater));
  EXPECT_EQ(rt.find(kDest)->next_hop, kHopB);
  EXPECT_FALSE(rt.offer(kDest, net::SeqNo{5}, true, 2, kHopA, kLater));  // equal hops
}

TEST(RouteTable, UnknownSeqOfferCannotReplaceKnown) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  EXPECT_FALSE(rt.offer(kDest, net::SeqNo{}, false, 1, kHopB, kLater));
}

TEST(RouteTable, InvalidEntryAcceptsAnyOfferButKeepsSeqKnowledge) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  rt.invalidate(kDest);
  EXPECT_TRUE(rt.offer(kDest, net::SeqNo{}, false, 4, kHopB, kLater));
  RouteEntry* e = rt.find(kDest);
  EXPECT_TRUE(e->valid);
  EXPECT_EQ(e->next_hop, kHopB);
  EXPECT_TRUE(e->seq_known);  // sequence knowledge survives (draft rule)
}

TEST(RouteTable, ExpiryIsLazy) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, sim::SimTime::seconds(15));
  EXPECT_NE(rt.find_valid(kDest, kT0), nullptr);
  EXPECT_EQ(rt.find_valid(kDest, kLater), nullptr);  // expired
  EXPECT_FALSE(rt.find(kDest)->valid);
}

TEST(RouteTable, RefreshExtendsLifetime) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, sim::SimTime::seconds(15));
  rt.refresh(kDest, sim::SimTime::seconds(30));
  EXPECT_NE(rt.find_valid(kDest, kLater), nullptr);
}

TEST(RouteTable, InvalidateBumpsSequence) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, kLater);
  RouteEntry* e = rt.invalidate(kDest);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->valid);
  EXPECT_EQ(e->seq, net::SeqNo{6});
  EXPECT_EQ(rt.invalidate(kDest), nullptr);  // already invalid
}

TEST(RouteTable, DestsViaListsOnlyValidRoutesThroughHop) {
  RouteTable rt;
  rt.offer(net::NodeId{10}, net::SeqNo{1}, true, 2, kHopA, kLater);
  rt.offer(net::NodeId{11}, net::SeqNo{1}, true, 2, kHopA, kLater);
  rt.offer(net::NodeId{12}, net::SeqNo{1}, true, 2, kHopB, kLater);
  rt.invalidate(net::NodeId{11});
  const auto via = rt.dests_via(kHopA);
  ASSERT_EQ(via.size(), 1u);
  EXPECT_EQ(via[0], net::NodeId{10});
}

TEST(RouteTable, SameRouteOfferRefreshesLifetime) {
  RouteTable rt;
  rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, sim::SimTime::seconds(15));
  EXPECT_FALSE(rt.offer(kDest, net::SeqNo{5}, true, 3, kHopA, sim::SimTime::seconds(40)));
  EXPECT_NE(rt.find_valid(kDest, sim::SimTime::seconds(30)), nullptr);
}

// Node ids 0..199 in a seeded random order.
std::vector<net::NodeId> shuffled_ids(std::uint64_t seed) {
  std::vector<net::NodeId> ids;
  for (std::uint32_t k = 0; k < 200; ++k) ids.push_back(net::NodeId{k});
  sim::Rng rng{seed};
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(ids[i], ids[j]);
  }
  return ids;
}

TEST(RouteTable, DestsViaIsAscendingAfterRandomOrderInserts) {
  // RERR contents and invalidation order follow dests_via, so its order
  // must not depend on insertion order or on the table's slot layout.
  RouteTable rt;
  std::vector<net::NodeId> expected;
  for (const net::NodeId dest : shuffled_ids(7)) {
    const net::NodeId hop = dest.value() % 3 == 0 ? kHopA : kHopB;
    rt.offer(dest, net::SeqNo{1}, true, 2, hop, kLater);
    if (hop == kHopA) expected.push_back(dest);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rt.dests_via(kHopA), expected);
}

TEST(NeighborTable, SweepExpiredReturnsAscendingIds) {
  NeighborTable nt;
  std::vector<net::NodeId> expected;
  for (const net::NodeId id : shuffled_ids(11)) {
    const bool stale = id.value() % 4 != 0;
    nt.heard(id, stale ? kT0 : kLater);
    if (stale) expected.push_back(id);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(nt.sweep_expired(sim::SimTime::seconds(15)), expected);
  EXPECT_EQ(nt.size(), 50u);
  EXPECT_TRUE(nt.sweep_expired(sim::SimTime::seconds(15)).empty());
}

}  // namespace
}  // namespace ag::aodv
