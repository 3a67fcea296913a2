// Regression tests for protocol bugs found while bringing the stack up —
// each of these silently destroyed delivery in full-scale runs before it
// was fixed, so they are pinned here, each under a comment naming the
// bug.
#include <gtest/gtest.h>

#include "testutil/stack_fixture.h"

namespace ag::maodv {
namespace {

using testutil::StaticNetwork;
using testutil::kGroup;
using testutil::line_positions;

testutil::StackOptions no_gossip() {
  testutil::StackOptions opts;
  opts.gossip_enabled = false;
  return opts;
}

// Bug 1: the leader adopted hop counts from re-flooded copies of its own
// group hello (leader's hops_to_leader drifted to 2+, breaking repair
// eligibility checks, which compare distances to the leader).
TEST(MaodvRegression, LeaderNeverAdoptsItsOwnFloodedHello) {
  StaticNetwork net{line_positions(4, 80.0), no_gossip()};
  net.join_all({0}, 10.0);
  net.join_all({3}, 20.0);
  net.run_for(30.0);  // several group-hello cycles with re-floods
  const GroupEntry* e = net.router(0).group_entry(kGroup);
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->is_leader);
  EXPECT_EQ(e->hops_to_leader, 0);
  EXPECT_FALSE(e->upstream().is_valid());
}

// Bug 2: a one-sided hello timeout left the victim feeding a dead edge
// forever — the parent had dropped it, but network-wide GRPH floods kept
// arriving "from an enabled hop", so tree liveness never fired. The
// tree-scoped beat (parent lists its children) makes the orphan repair.
TEST(MaodvRegression, OrphanedSubtreeRepairsWithinLivenessWindow) {
  StaticNetwork net{line_positions(4, 80.0), no_gossip()};
  net.join_all({0}, 10.0);
  net.join_all({3}, 20.0);
  ASSERT_TRUE(net.all_on_tree({0, 3}));

  // Simulate the one-sided break: node 1 (on the path 0-1-2-3) silently
  // drops its downstream hop toward 2, as a false-positive hello timeout
  // would. Node 2/3 still believe the edge exists.
  GroupEntry* e1 = const_cast<GroupEntry*>(net.router(1).group_entry(kGroup));
  ASSERT_NE(e1, nullptr);
  // Reach into the entry the way the timeout path does.
  for (auto& hop : e1->next_hops) {
    if (hop.id == net::NodeId{2}) hop.enabled = false;
  }

  // Within a few group-hello intervals the beat stops reaching 2 and 3;
  // they must repair and data must flow again.
  net.run_for(40.0);
  const auto before = net.agent(3).counters().delivered_unique;
  for (int i = 0; i < 5; ++i) {
    net.sim().schedule_after(sim::Duration::ms(200 * i),
                             [&net] { net.router(0).send_multicast(kGroup, 64); });
  }
  net.run_for(10.0);
  EXPECT_EQ(net.agent(3).counters().delivered_unique, before + 5);
}

// Bug 3: a member that lost its last tree link (failed graft, cascading
// prune) with join_state == none was never re-joined by any timer.
TEST(MaodvRegression, FullyDetachedMemberKeepsRejoining) {
  StaticNetwork net{line_positions(3, 80.0), no_gossip()};
  net.join_all({0}, 10.0);
  net.join_all({2}, 20.0);
  ASSERT_TRUE(net.all_on_tree({0, 2}));

  // Forcibly strip node 2's tree state, as a botched graft would.
  GroupEntry* e2 = const_cast<GroupEntry*>(net.router(2).group_entry(kGroup));
  ASSERT_NE(e2, nullptr);
  e2->next_hops.clear();
  ASSERT_FALSE(e2->on_tree());
  ASSERT_TRUE(e2->is_member);

  net.run_for(30.0);  // liveness sweep must re-join the member
  const GroupEntry* healed = net.router(2).group_entry(kGroup);
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(healed->on_tree());
  const auto before = net.agent(2).counters().delivered_unique;
  net.router(0).send_multicast(kGroup, 64);
  net.run_for(5.0);
  EXPECT_EQ(net.agent(2).counters().delivered_unique, before + 1);
}

// Bug 4 (gossip): a member that had received nothing sent empty pull
// requests, so recovery never started (cold-start hole).
TEST(MaodvRegression, GossipColdStartRecoversMemberThatMissedEverything) {
  testutil::StackOptions opts;
  opts.gossip.p_anon = 1.0;
  StaticNetwork net{line_positions(4, 70.0), opts};
  net.join_all({0}, 10.0);
  net.join_all({3}, 15.0);
  ASSERT_TRUE(net.all_on_tree({0, 3}));

  // Node 3 hears no data at all while the source streams.
  net.channel().set_drop_hook([](std::size_t, std::size_t to) { return to == 3; });
  for (int i = 0; i < 10; ++i) {
    net.sim().schedule_after(sim::Duration::ms(200 * i),
                             [&net] { net.router(0).send_multicast(kGroup, 64); });
  }
  net.run_for(10.0);
  ASSERT_EQ(net.agent(3).counters().delivered_unique, 0u);

  // Link heals: node 3 knows of no sender, so only the acceptor-side
  // cold-start push can recover the backlog.
  net.channel().set_drop_hook(nullptr);
  net.run_for(30.0);
  EXPECT_EQ(net.agent(3).counters().delivered_unique, 10u);
  EXPECT_EQ(net.agent(3).counters().delivered_via_gossip, 10u);
}

}  // namespace
}  // namespace ag::maodv
