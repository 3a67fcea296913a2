// TSan stress companion to experiment_builder_test: the sanitizer CI
// matrix (AG_SANITIZE=tsan) runs this to hammer the two concurrency
// surfaces the builder owns — the work-stealing worker pool writing the
// pre-sized result grid, and the thread-local PacketPool slab reuse
// across runs executed on the same worker. The assertions re-pin the
// serial == parallel equality contract under contention (many more jobs
// than the per-test sweep in experiment_builder_test), so a data race
// surfaces either as a TSan report or as a diverging aggregate.
//
// Added by the correctness-tooling PR: the initial ASan/UBSan/TSan
// matrix run over tier-1 + smokes came back clean, so per ISSUE 6 this
// explicit stress test guards the builder instead of a finding fix.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "harness/experiment_builder.h"
#include "net/data_plane.h"

namespace ag::harness {
namespace {

ScenarioConfig stress_base() {
  ScenarioConfig c;
  c.node_count = 8;
  c.phy.transmission_range_m = 80.0;
  c.waypoint.max_speed_mps = 1.0;
  c.duration = sim::SimTime::seconds(25.0);
  c.workload.start = sim::SimTime::seconds(8.0);
  c.workload.end = sim::SimTime::seconds(20.0);
  return c;
}

void set_range(ScenarioConfig& c, double x) { c.with_range(x); }

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s].name, b.series[s].name);
    ASSERT_EQ(a.series[s].points.size(), b.series[s].points.size());
    for (std::size_t i = 0; i < a.series[s].points.size(); ++i) {
      const SeriesPoint& pa = a.series[s].points[i];
      const SeriesPoint& pb = b.series[s].points[i];
      EXPECT_DOUBLE_EQ(pa.received.mean, pb.received.mean);
      EXPECT_DOUBLE_EQ(pa.received.stddev, pb.received.stddev);
      EXPECT_EQ(pa.dtn_active, pb.dtn_active);
      EXPECT_EQ(pa.adversary_active, pb.adversary_active);
      // Every per-point metric, exactly. Pool and table counters are
      // logical-op counts, so they must be scheduling-independent too — a
      // thread-local slab leaking state between workers shows up here
      // before it corrupts payloads.
#define AG_EXPECT_SAME(member, key, agg, init, gate, sinks, expr) \
  EXPECT_EQ(pa.member, pb.member) << key;
      AG_POINT_METRICS(AG_EXPECT_SAME)
#undef AG_EXPECT_SAME
      ASSERT_EQ(pa.runs.size(), pb.runs.size());
      for (std::size_t r = 0; r < pa.runs.size(); ++r) {
        EXPECT_EQ(pa.runs[r].seed, pb.runs[r].seed);
        EXPECT_EQ(pa.runs[r].totals.channel_transmissions,
                  pb.runs[r].totals.channel_transmissions);
        EXPECT_EQ(pa.runs[r].totals.phy_deliveries, pb.runs[r].totals.phy_deliveries);
        EXPECT_EQ(pa.runs[r].totals.sim_events, pb.runs[r].totals.sim_events);
      }
    }
  }
}

// Many small jobs across more threads than cores: maximizes preemption
// inside run_scenario and slab churn inside each worker's PacketPool.
TEST(BuilderParallelStress, ManyJobsManyThreadsMatchSerial) {
  auto build = [] {
    return Experiment::sweep("range_m", {60.0, 70.0, 80.0, 90.0}, set_range)
        .base(stress_base())
        .protocols({Protocol::maodv_gossip, Protocol::flooding})
        .seeds(3);  // 4 x 2 x 3 = 24 jobs
  };
  ExperimentResult serial = build().parallel(1).run();
  ExperimentResult threaded = build().parallel(8).run();
  expect_identical(serial, threaded);
}

// The progress callback runs on every worker thread concurrently; the
// builder's contract is that `completed` observes each increment once.
// An atomic tally is the race-free way to consume it — this pins that
// the callback is invoked exactly once per job with a full final count.
TEST(BuilderParallelStress, ProgressCallbackCountsEveryJobOnce) {
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> max_completed{0};
  ExperimentResult r = Experiment::sweep("range_m", {70.0, 85.0}, set_range)
                           .base(stress_base())
                           .protocols({Protocol::maodv_gossip})
                           .seeds(4)  // 2 x 1 x 4 = 8 jobs
                           .parallel(4)
                           .on_progress([&](std::size_t completed, std::size_t total) {
                             calls.fetch_add(1);
                             EXPECT_LE(completed, total);
                             std::size_t seen = max_completed.load();
                             while (completed > seen &&
                                    !max_completed.compare_exchange_weak(seen, completed)) {
                             }
                           })
                           .run();
  EXPECT_EQ(calls.load(), 8u);
  EXPECT_EQ(max_completed.load(), 8u);
  ASSERT_EQ(r.series.size(), 1u);
}

// Back-to-back parallel builds on the same thread pool pattern: slabs
// recycled by earlier runs must not perturb later ones (Network clears
// the local pool at construction; this exercises that contract under
// TSan with interleaved lifetimes).
TEST(BuilderParallelStress, RepeatedParallelBuildsStayIdentical) {
  auto build = [] {
    return Experiment::sweep("range_m", {75.0}, set_range)
        .base(stress_base())
        .protocols({Protocol::maodv_gossip})
        .seeds(4)
        .parallel(4);
  };
  ExperimentResult first = build().run();
  for (int i = 0; i < 3; ++i) {
    ExperimentResult again = build().run();
    expect_identical(first, again);
  }
  // The local (main-thread) pool keeps at most kMaxFree slabs and never
  // goes negative-size — cheap invariant that would trip on a recycle
  // race corrupting the free list.
  EXPECT_LE(net::PacketPool::local().free_count(), 4096u);
}

}  // namespace
}  // namespace ag::harness
