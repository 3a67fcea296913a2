// Test utility for the engine equivalence suites (batched backoff,
// batched phy, spatial index): one short scenario and one comparison of
// everything the protocol model produced. Event counts are engine-
// specific, so each suite checks its own event-accounting identities on
// top of this.
#ifndef AG_TESTS_TESTUTIL_EQUIVALENCE_H
#define AG_TESTS_TESTUTIL_EQUIVALENCE_H

#include <gtest/gtest.h>

#include <cstddef>

#include "harness/scenario.h"
#include "stats/run_result.h"

namespace ag::testutil {

// 40 nodes, 40 s, traffic 10-30 s: long enough for tree repair, gossip
// and collisions, short enough for a whole-run A/B.
inline harness::ScenarioConfig short_scenario() {
  harness::ScenarioConfig c;
  c.node_count = 40;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(10.0);
  c.workload.end = sim::SimTime::seconds(30.0);
  return c;
}

// The shorter 25 s variant (traffic 10-20 s) for per-protocol sweeps.
inline harness::ScenarioConfig shorter_scenario() {
  harness::ScenarioConfig c = short_scenario();
  c.duration = sim::SimTime::seconds(25.0);
  c.workload.end = sim::SimTime::seconds(20.0);
  return c;
}

// short_scenario() with crashes, churn and a partition, which exercise
// the power-cycle, suppression and reset paths.
inline harness::ScenarioConfig churn_scenario() {
  harness::ScenarioConfig c = short_scenario();
  c.faults.spec.churn_per_min = 3.0;
  c.faults.spec.crash_fraction = 0.2;
  c.faults.spec.partition_duration_s = 8.0;
  return c;
}

// Every model output of two runs must match: deliveries, latencies, phy
// and MAC decisions, routing/gossip work and the data-plane counters.
// Simulator event counts are deliberately not compared here.
inline void expect_same_model_output(const stats::RunResult& a, const stats::RunResult& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    EXPECT_EQ(a.members[i].received, b.members[i].received) << "member " << i;
    EXPECT_EQ(a.members[i].via_gossip, b.members[i].via_gossip) << "member " << i;
    EXPECT_EQ(a.members[i].eligible, b.members[i].eligible) << "member " << i;
    EXPECT_DOUBLE_EQ(a.members[i].mean_latency_s, b.members[i].mean_latency_s)
        << "member " << i;
  }
  EXPECT_EQ(a.totals.channel_transmissions, b.totals.channel_transmissions);
  EXPECT_EQ(a.totals.phy_deliveries, b.totals.phy_deliveries);
  EXPECT_EQ(a.totals.phy_suppressed_down, b.totals.phy_suppressed_down);
  EXPECT_EQ(a.totals.phy_suppressed_partition, b.totals.phy_suppressed_partition);
  EXPECT_EQ(a.totals.mac_unicast, b.totals.mac_unicast);
  EXPECT_EQ(a.totals.mac_broadcast, b.totals.mac_broadcast);
  EXPECT_EQ(a.totals.mac_collisions, b.totals.mac_collisions);
  EXPECT_EQ(a.totals.mac_queue_drops, b.totals.mac_queue_drops);
  // (If this ever trips after a scenario change: a countdown still in
  // flight at the run cutoff has its elapsed ticks credited by the
  // per-slot MAC but not yet by the batched one — these scenarios end
  // with no countdown in flight, keeping equality exact.)
  EXPECT_EQ(a.totals.mac_backoff_slots_credited, b.totals.mac_backoff_slots_credited);
  EXPECT_EQ(a.totals.data_forwarded, b.totals.data_forwarded);
  EXPECT_EQ(a.totals.gossip_walks, b.totals.gossip_walks);
  EXPECT_EQ(a.totals.gossip_replies, b.totals.gossip_replies);
  EXPECT_EQ(a.totals.nm_updates, b.totals.nm_updates);
  // Logical-op counts; the pool split is exact because every Network
  // starts from a cold pool (see PacketPool::clear).
  EXPECT_EQ(a.totals.table_probes, b.totals.table_probes);
  EXPECT_EQ(a.totals.pool_hits, b.totals.pool_hits);
  EXPECT_EQ(a.totals.pool_misses, b.totals.pool_misses);
  EXPECT_DOUBLE_EQ(a.delivery_ratio(), b.delivery_ratio());
}

}  // namespace ag::testutil

#endif  // AG_TESTS_TESTUTIL_EQUIVALENCE_H
