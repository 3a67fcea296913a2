// Whole-run equivalence of the batched phy delivery engine against the
// per-receiver reference machine (PhyParams::use_batched_phy = false):
// sweeping one completion event over a delivery group and analytically
// eliding doomed receptions must not move a single listener callback, so
// full simulations are bit-identical — only the number of simulator
// events differs (that's the point). This is the suite the
// BENCH_fig2/BENCH_churn byte-identity claim rests on, the phy-layer
// analogue of batched_backoff_equivalence_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/network.h"
#include "harness/scenario.h"
#include "mobility/static_mobility.h"
#include "net/data_plane.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/event_category.h"
#include "sim/simulator.h"
#include "stats/run_result.h"
#include "testutil/equivalence.h"

namespace ag::phy {
namespace {

using testutil::churn_scenario;
using testutil::short_scenario;
using testutil::shorter_scenario;

stats::RunResult run_with_mode(harness::ScenarioConfig config, bool batched) {
  config.phy.use_batched_phy = batched;
  return harness::run_scenario(config);
}

// Everything the model produced must match; sim_events and the
// phy_delivery event counts legitimately differ (the batched engine
// executes fewer events for the same simulated run) and are pinned
// here through the elision accounting.
void expect_identical_runs(const stats::RunResult& batched,
                           const stats::RunResult& reference) {
  const stats::RunResult& a = batched;
  const stats::RunResult& b = reference;
  testutil::expect_same_model_output(a, b);

  // The engines must agree on how much work was *represented*. The
  // reference never elides, and every non-phy category is untouched by
  // the phy engine choice — the MACs above see the identical callback
  // sequence, so their RNG streams and event schedules match event for
  // event.
  EXPECT_EQ(b.totals.phy_rx_elided, 0u);
  EXPECT_EQ(b.totals.phy_rx_coalesced, 0u);
  const auto phy_idx = sim::category_index(sim::EventCategory::phy_delivery);
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    if (c == phy_idx) continue;
    EXPECT_EQ(a.totals.ev_scheduled[c], b.totals.ev_scheduled[c]) << "category " << c;
    EXPECT_EQ(a.totals.ev_executed[c], b.totals.ev_executed[c]) << "category " << c;
  }
  // Reconstruction identity: completions the batched engine coalesced
  // into group sweeps or elided outright, added back to the events it
  // did execute, reproduce the reference engine's phy_delivery event
  // count exactly (elided credits settle as their would-be finish times
  // pass, so the identity holds across run cutoffs too).
  EXPECT_EQ(a.totals.ev_executed[phy_idx] + a.totals.phy_rx_elided +
                a.totals.phy_rx_coalesced,
            b.totals.ev_executed[phy_idx]);
  EXPECT_LE(a.totals.ev_scheduled[phy_idx], b.totals.ev_scheduled[phy_idx]);
  EXPECT_LE(a.totals.sim_events, b.totals.sim_events);
  // A 40-node broadcast mesh has multi-receiver delivery groups in every
  // run — the batched engine must actually be batching.
  EXPECT_GT(a.totals.phy_events_elided(), 0u);
  EXPECT_LT(a.totals.ev_executed[phy_idx], b.totals.ev_executed[phy_idx]);
}

TEST(BatchedPhyEquivalence, WholeRunBitIdenticalToPerReceiverReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    const harness::ScenarioConfig c = short_scenario().with_seed(seed);
    expect_identical_runs(run_with_mode(c, true), run_with_mode(c, false));
  }
}

TEST(BatchedPhyEquivalence, ChurnRunBitIdenticalToPerReceiverReference) {
  // Churn exercises abort_receptions on crash (radio loses power
  // mid-frame), down-node suppression inside delivery groups, and
  // partition-driven group membership changes.
  const harness::ScenarioConfig c = churn_scenario().with_seed(5);
  const stats::RunResult batched = run_with_mode(c, true);
  EXPECT_GT(batched.faults.crashes + batched.faults.leaves + batched.faults.partitions,
            0u);
  expect_identical_runs(batched, run_with_mode(c, false));
}

TEST(BatchedPhyEquivalence, EveryProtocolBitIdentical) {
  // Different substrates drive very different delivery-group shapes
  // (flooding saturates every cell; MAODV/ODMRP mix ACKed unicast in).
  for (const harness::Protocol p :
       {harness::Protocol::maodv_gossip, harness::Protocol::odmrp_gossip,
        harness::Protocol::flooding}) {
    harness::ScenarioConfig c = shorter_scenario();
    c.with_protocol(p).with_seed(3);
    expect_identical_runs(run_with_mode(c, true), run_with_mode(c, false));
  }
}

TEST(BatchedPhyEquivalence, BitIdenticalUnderPerSlotMacReferenceToo) {
  // Cross the phy engines with the per-slot reference MAC: it polls
  // medium_busy()/idle_for() far more aggressively than the batched
  // countdown, so run the phy A/B under it to pin the facade queries at
  // every slot edge.
  harness::ScenarioConfig c = shorter_scenario();
  c.with_seed(7);
  c.mac.batched_backoff = false;
  expect_identical_runs(run_with_mode(c, true), run_with_mode(c, false));
}

// ---------------------------------------------------------------------------
// Radio-level trace equivalence: drive bare Radios (no MAC above) with a
// fixed pseudo-random transmit schedule across two dense cells and
// compare the complete per-node listener callback traces, timestamps
// included. This catches any reordering the whole-run statistics could
// mask.

struct TraceEvent {
  std::int64_t t_us;
  char kind;  // 'b' busy, 'i' idle, 'r' frame received, 'c' tx complete
  std::uint32_t src{0};
  std::uint32_t seq{0};
  bool operator==(const TraceEvent&) const = default;
};

class TracingListener : public RadioListener {
 public:
  explicit TracingListener(sim::Simulator& sim) : sim_{&sim} {}
  void on_frame_received(const mac::Frame& frame) override {
    trace.push_back({sim_->now().count_us(), 'r', frame.mac_src.value(),
                     frame.mac_seq});
  }
  void on_medium_busy() override { trace.push_back({sim_->now().count_us(), 'b'}); }
  void on_medium_idle() override { trace.push_back({sim_->now().count_us(), 'i'}); }
  void on_transmit_complete() override {
    trace.push_back({sim_->now().count_us(), 'c'});
  }

  std::vector<TraceEvent> trace;

 private:
  sim::Simulator* sim_;
};

mac::Frame trace_frame(std::uint32_t src, std::uint16_t seq, std::uint16_t payload) {
  // Mixed airtimes matter: a short frame arriving doomed mid-way through
  // a long reception is the case the batched engine elides (its end is
  // strictly covered), so the schedule must interleave sizes.
  mac::Frame f;
  f.kind = mac::FrameKind::data;
  f.mac_src = net::NodeId{src};
  f.mac_dst = net::NodeId::broadcast();
  f.mac_seq = seq;
  net::MulticastData data;
  data.group = net::GroupId{1};
  data.origin = net::NodeId{src};
  data.seq = seq;
  data.payload_bytes = payload;
  f.packet = net::make_packet(net::NodeId{src}, net::NodeId::broadcast(), 32, data);
  return f;
}

struct TraceRun {
  std::vector<std::vector<TraceEvent>> traces;  // per node
  std::vector<Radio::Counters> counters;        // per node
  std::uint64_t transmissions{0};
  std::uint64_t deliveries{0};
  std::uint64_t rx_elided{0};
  std::uint64_t rx_coalesced{0};
};

TraceRun run_trace(bool batched) {
  // Two dense cells 600 m apart: every node hears its whole cell and
  // nothing across — delivery groups of up to 11 receivers, overlapping
  // storms within a cell, and concurrent independent traffic per cell.
  std::vector<mobility::Vec2> positions;
  for (std::uint32_t i = 0; i < 12; ++i) {
    positions.push_back({static_cast<double>(i % 4) * 12.0,
                         static_cast<double>(i / 4) * 12.0});
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    positions.push_back({600.0 + static_cast<double>(i % 4) * 12.0,
                         static_cast<double>(i / 4) * 12.0});
  }
  const std::size_t n = positions.size();

  sim::Simulator sim;
  mobility::StaticMobility mobility{std::move(positions)};
  Channel channel{sim, mobility, PhyParams{100.0, 2e6, 192.0, 3e8, true, batched}};
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<TracingListener>> listeners;
  for (std::size_t i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<Radio>(sim, channel, i));
    channel.attach(radios.back().get());
    listeners.push_back(std::make_unique<TracingListener>(sim));
    radios.back()->set_listener(listeners.back().get());
  }

  // Deterministic LCG (same constants as glibc) so both engines see the
  // byte-identical schedule; a node already mid-transmission skips its
  // slot — that decision reads engine state, so a divergence would
  // cascade into the traces and fail the comparison below.
  std::uint64_t lcg = 12345;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(lcg >> 33);
  };
  for (std::uint16_t k = 0; k < 400; ++k) {
    const std::int64_t at = 200 + static_cast<std::int64_t>(k) * 250 +
                            static_cast<std::int64_t>(next() % 200);
    const std::uint32_t node = next() % static_cast<std::uint32_t>(n);
    const auto payload =
        static_cast<std::uint16_t>(8u + (next() % 4u) * 250u);  // ~0.3 to ~3.3 ms air
    sim.schedule_at(sim::SimTime::us(at), [&radios, node, k, payload] {
      if (!radios[node]->transmitting()) {
        radios[node]->transmit(trace_frame(node, k, payload));
      }
    });
  }
  sim.run_all();

  TraceRun out;
  for (std::size_t i = 0; i < n; ++i) {
    out.traces.push_back(listeners[i]->trace);
    out.counters.push_back(radios[i]->counters());
  }
  out.transmissions = channel.transmissions();
  out.deliveries = channel.deliveries();
  out.rx_elided = channel.rx_elided();
  out.rx_coalesced = channel.rx_coalesced();
  return out;
}

TEST(BatchedPhyEquivalence, DenseCellRandomTraceBitIdentical) {
  const TraceRun a = run_trace(true);
  const TraceRun b = run_trace(false);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    ASSERT_EQ(a.traces[i].size(), b.traces[i].size()) << "node " << i;
    for (std::size_t j = 0; j < a.traces[i].size(); ++j) {
      EXPECT_EQ(a.traces[i][j], b.traces[i][j])
          << "node " << i << " event " << j << ": " << a.traces[i][j].kind << "@"
          << a.traces[i][j].t_us << " vs " << b.traces[i][j].kind << "@"
          << b.traces[i][j].t_us;
    }
    EXPECT_EQ(a.counters[i].frames_sent, b.counters[i].frames_sent) << "node " << i;
    EXPECT_EQ(a.counters[i].frames_received, b.counters[i].frames_received)
        << "node " << i;
    EXPECT_EQ(a.counters[i].frames_corrupted, b.counters[i].frames_corrupted)
        << "node " << i;
    EXPECT_EQ(a.counters[i].frames_missed_while_tx, b.counters[i].frames_missed_while_tx)
        << "node " << i;
  }
  // The storm must actually exercise the batched machinery: coalesced
  // multi-receiver sweeps and analytically elided doomed receptions.
  EXPECT_GT(a.rx_coalesced, 0u);
  EXPECT_GT(a.rx_elided, 0u);
  EXPECT_EQ(b.rx_elided, 0u);
  EXPECT_EQ(b.rx_coalesced, 0u);
}

}  // namespace
}  // namespace ag::phy
