// Batched phy delivery engine: one completion event per transmitted
// frame instead of one finish_reception event per (frame x receiver),
// with analytic elision of receptions that are already doomed and
// strictly outlived by the receiver's other on-air state. Radio state
// lives in flat per-node arrays (SoA, keyed like net::NodeTable) swept
// in ascending node order, so every listener callback
// (on_medium_busy / on_medium_idle / on_frame_received) fires in
// exactly the order the per-receiver reference engine produces — full
// runs are bit-identical, only the simulator event counts differ.
//
// The reference per-receiver engine (phy/radio.cpp) stays selectable
// behind PhyParams::use_batched_phy = false. batched_phy_equivalence_test
// pins the equivalence, and the elision accounting reconstructs the
// reference's executed phy_delivery event count exactly:
//   ref executed == batched executed + rx_elided + rx_coalesced.
//
// Why elision is sound only under a *strict* cover (end < busy_until):
// at equal end times the reference fires the busy->idle transition
// inside the LAST same-end finish event, so dropping the doomed
// reception would move the on_medium_idle callback to an earlier
// same-timestamp event and shift every MAC timer seeded from it.
#ifndef AG_PHY_BATCHED_PHY_H
#define AG_PHY_BATCHED_PHY_H

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "mac/frame.h"
#include "sim/simulator.h"

namespace ag::phy {

class Channel;
class Radio;
class RadioListener;

class BatchedPhy {
 public:
  BatchedPhy(sim::Simulator& sim, Channel& channel);

  // Grows the per-node arrays; called from Channel::attach in node order.
  void attach(Radio* radio);

  // Mirror of Radio::set_listener — the hot notification paths read the
  // flat table instead of chasing a Radio pointer per state change.
  void set_listener(std::size_t node, RadioListener* listener) {
    if (node >= listeners_.size()) listeners_.resize(node + 1, nullptr);
    listeners_[node] = listener;
  }

  // --- Radio facade (state queries on the SoA table) ---
  [[nodiscard]] bool transmitting(std::size_t node) const {
    return transmitting_[node] != 0;
  }
  [[nodiscard]] bool medium_busy(std::size_t node) const {
    return transmitting_[node] != 0 || rx_count_[node] > 0;
  }
  [[nodiscard]] sim::Duration idle_for(std::size_t node) const;

  // Radio::transmit body: corrupts in-flight receptions (half duplex),
  // hands the frame to the channel, schedules tx-complete. Schedule-call
  // order matches the reference exactly (arrival events, then the
  // tx-complete event), so FIFO ties break identically.
  void transmit(std::size_t node, const mac::Frame& frame);

  // Single-receiver reception (direct Radio::begin_reception calls, e.g.
  // unit tests). Tracked receptions from this path bypass the per-cell
  // airtime timeline, so they disable the uncontended fast path while in
  // flight (unstamped_live_).
  void begin_reception(std::size_t node, std::shared_ptr<const mac::Frame> frame,
                       sim::SimTime end);

  // Crash support: corrupts every reception in progress without touching
  // collision counters. Entries stay tracked (their completion events
  // still drain rx_count_), mirroring the reference's corrupt-in-place.
  void abort_receptions(std::size_t node) { has_clean_[node] = 0; }

  // --- Channel delivery path ---
  // Processes one frame's receiver group (ascending node order, downed
  // receivers already excluded by the caller): credits collision
  // counters, elides strictly-covered doomed receptions, and schedules
  // ONE completion event for the survivors. `uncontended` is the per-cell
  // airtime-timeline verdict: every receiver provably has no reception
  // in flight, so the collision branches are skipped wholesale. Returns
  // the number of tracked (live) receivers, 0 when fully elided.
  std::size_t deliver_group(const std::shared_ptr<const mac::Frame>& frame,
                            sim::SimTime end,
                            const std::vector<std::uint32_t>& rx,
                            bool uncontended);

  // --- elision accounting ---
  // Receptions resolved with no completion event ever scheduled, settled
  // against sim.now(): an elided end is credited once the reference's
  // finish event would have executed, so the reconstruction identity
  // holds exactly even for frames in flight at the run cutoff.
  [[nodiscard]] std::uint64_t rx_elided() const;
  // Live receivers beyond the first per completion event (L receivers
  // swept by one event = L-1 events the reference would have executed).
  [[nodiscard]] std::uint64_t rx_coalesced() const { return rx_coalesced_; }
  // True while a reception tracked outside the channel's cell timeline
  // is in flight (begin_reception path) — the fast path must stand down.
  [[nodiscard]] bool has_unstamped_live() const { return unstamped_live_ > 0; }

 private:
  // Arrival bookkeeping for one receiver. Returns true when the
  // reception must be tracked (false: analytically elided).
  bool arrive(std::size_t node, const mac::Frame* frame_key, sim::SimTime end);
  // finish_reception equivalent for one receiver of `frame`.
  void complete_one(std::size_t node, const std::shared_ptr<const mac::Frame>& frame);
  // Busy-state transition notifications, specialized per call site (the
  // post-mutation busy verdict is statically known at each): notify_busy
  // after a mutation that left the node busy, settle_if_idle after one
  // that may have drained the last on-air state.
  void notify_busy(std::size_t node, bool was_busy);
  void settle_if_idle(std::size_t node);
  void settle_elided() const;

  sim::Simulator& sim_;
  Channel& channel_;
  std::vector<Radio*> radios_;
  std::vector<RadioListener*> listeners_;  // kept in sync by Radio::set_listener

  // SoA radio state, indexed by node. At most one in-flight reception
  // per node can be clean (any overlap corrupts all, no capture), so the
  // clean slot is a flag + the frame's identity; corrupt receptions need
  // no identity at all, only the count that keeps carrier sense busy.
  std::vector<std::uint8_t> transmitting_;
  std::vector<std::uint32_t> rx_count_;       // tracked receptions in flight
  std::vector<std::uint8_t> has_clean_;
  std::vector<const mac::Frame*> clean_frame_; // valid while has_clean_
  // High-water mark over tracked busy state (tx end + reception ends).
  // Exact while the node is busy; reset at every busy->idle transition
  // so a stale value can never justify an elision across an idle gap.
  std::vector<sim::SimTime> busy_until_;
  std::vector<sim::SimTime> idle_since_;      // valid while !medium_busy

  // Min-heap of (would-be finish time, count) for elided receptions,
  // drained into rx_elided_ as sim.now() passes each end.
  using ElidedEntry = std::pair<sim::SimTime, std::uint64_t>;
  mutable std::priority_queue<ElidedEntry, std::vector<ElidedEntry>,
                              std::greater<ElidedEntry>>
      elided_pending_;
  mutable std::uint64_t rx_elided_{0};
  std::uint64_t rx_coalesced_{0};
  std::uint64_t unstamped_live_{0};
};

}  // namespace ag::phy

#endif  // AG_PHY_BATCHED_PHY_H
