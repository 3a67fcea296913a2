// Whole-run equivalence of the analytic (event-elided) MAC backoff
// countdown against the per-slot reference machine
// (MacParams::batched_backoff = false): fusing DIFS + backoff into one
// deadline and crediting slots analytically on pause must not move a
// single transmission, so full simulations are bit-identical — only the
// number of simulator events differs (that's the point). This is the
// suite the BENCH_fig2/BENCH_churn byte-identity claim rests on for the
// contention engine.
#include <gtest/gtest.h>

#include "harness/network.h"
#include "harness/scenario.h"
#include "sim/event_category.h"
#include "stats/run_result.h"
#include "testutil/equivalence.h"

namespace ag::mac {
namespace {

using testutil::churn_scenario;
using testutil::short_scenario;
using testutil::shorter_scenario;

stats::RunResult run_with_mode(harness::ScenarioConfig config, bool batched) {
  config.mac.batched_backoff = batched;
  return harness::run_scenario(config);
}

// Everything the model produced must match; the event-mix counters and
// sim_events legitimately differ (the batched engine executes fewer
// events for the same simulated run) and are reconciled here.
void expect_identical_runs(const stats::RunResult& batched,
                           const stats::RunResult& reference) {
  const stats::RunResult& a = batched;
  const stats::RunResult& b = reference;
  testutil::expect_same_model_output(a, b);

  // The engines must agree on how much work was *represented*: the
  // reference executes one mac_slot event per consumed slot (nothing
  // elided), so its tick count reconstructs exactly from the batched
  // run's elision accounting.
  const auto slot_idx = sim::category_index(sim::EventCategory::mac_slot);
  const auto difs_idx = sim::category_index(sim::EventCategory::mac_difs);
  EXPECT_EQ(b.totals.mac_slots_elided(), 0u);
  EXPECT_EQ(b.totals.mac_difs_elided, 0u);
  EXPECT_EQ(b.totals.ev_executed[slot_idx], b.totals.mac_backoff_slots_credited);
  // DIFS waits the fused deadline absorbed + the difs events the batched
  // engine still executed reconstruct the reference's difs event count.
  // (Caveats if this ever trips after a scenario change: a countdown in
  // flight at the run cutoff, or an arrival landing in the exact
  // microsecond of an anchor with a 1 us DIFS remainder, each shift the
  // reconstruction by one — these scenarios hit neither.)
  EXPECT_EQ(a.totals.ev_executed[difs_idx] + a.totals.mac_difs_elided,
            b.totals.ev_executed[difs_idx]);
  if (b.totals.ev_executed[slot_idx] > 0) {
    EXPECT_LT(a.totals.ev_executed[slot_idx], b.totals.ev_executed[slot_idx])
        << "batched engine should execute fewer mac_slot events";
  }
  EXPECT_LE(a.totals.sim_events, b.totals.sim_events);
}

TEST(BatchedBackoffEquivalence, WholeRunBitIdenticalToPerSlotReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const harness::ScenarioConfig c = short_scenario().with_seed(seed);
    expect_identical_runs(run_with_mode(c, true), run_with_mode(c, false));
  }
}

TEST(BatchedBackoffEquivalence, ChurnRunBitIdenticalToPerSlotReference) {
  // Churn exercises power_cycle mid-countdown, partition-driven busy/idle
  // flapping, and membership-driven queue churn.
  const harness::ScenarioConfig c = churn_scenario().with_seed(5);
  const stats::RunResult batched = run_with_mode(c, true);
  EXPECT_GT(batched.faults.crashes + batched.faults.leaves + batched.faults.partitions,
            0u);
  expect_identical_runs(batched, run_with_mode(c, false));
}

TEST(BatchedBackoffEquivalence, EveryProtocolBitIdentical) {
  // Different substrates drive very different MAC mixes (flooding is
  // broadcast-only and saturates; MAODV/ODMRP mix ACKed unicast in).
  for (const harness::Protocol p :
       {harness::Protocol::maodv_gossip, harness::Protocol::odmrp_gossip,
        harness::Protocol::flooding}) {
    harness::ScenarioConfig c = shorter_scenario();
    c.with_protocol(p).with_seed(3);
    expect_identical_runs(run_with_mode(c, true), run_with_mode(c, false));
  }
}

}  // namespace
}  // namespace ag::mac
