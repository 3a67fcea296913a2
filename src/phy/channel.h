// Broadcast wireless medium with unit-disk propagation: every radio within
// transmission_range_m of the sender (positions taken at transmit start)
// receives the frame after the propagation delay.
//
// Receiver lookup goes through a grid spatial index (phy/spatial_index.h)
// keyed off mobility positions — O(degree) per transmit instead of the
// brute-force O(n) scan — and the frame is scheduled as one shared
// immutable copy across all receivers. PhyParams::use_spatial_index =
// false restores the brute-force scan; both paths make bit-identical
// delivery decisions.
#ifndef AG_PHY_CHANNEL_H
#define AG_PHY_CHANNEL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mac/frame.h"
#include "mobility/mobility_model.h"
#include "phy/phy_params.h"
#include "phy/spatial_index.h"
#include "sim/simulator.h"

namespace ag::phy {

class BatchedPhy;
class Radio;

class Channel {
 public:
  Channel(sim::Simulator& sim, const mobility::MobilityModel& mobility, PhyParams params);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Radios must be attached in node-index order.
  void attach(Radio* radio);

  [[nodiscard]] const PhyParams& params() const { return params_; }
  [[nodiscard]] sim::Duration airtime_of(const mac::Frame& frame) const;

  // Called by the sending radio; delivers to all radios in range.
  void transmit(std::size_t sender, const mac::Frame& frame);

  // Test hook: returns true to silently drop the copy from `sender` to
  // `receiver` (deterministic loss injection for recovery tests).
  using DropHook = std::function<bool(std::size_t sender, std::size_t receiver)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  // --- fault hooks (driven by the FaultInjector; zero-cost when unused) ---
  // A downed radio radiates nothing and hears nothing.
  void set_node_down(std::size_t node, bool down);
  [[nodiscard]] bool is_node_down(std::size_t node) const {
    return node < down_.size() && down_[node] != 0;
  }
  // Installs a cut: frames cross only between nodes on the same side.
  // `side_of_node` must have one entry per attached radio.
  void set_partition(std::vector<std::uint8_t> side_of_node);
  void clear_partition() { partition_.clear(); }
  [[nodiscard]] bool partition_active() const { return !partition_.empty(); }
  // Whether a frame between `a` and `b` would currently be suppressed by
  // a downed endpoint or an active cut (range not considered) — the same
  // predicate transmit() applies per receiver, exposed for observational
  // layers like the DTN contact monitor.
  [[nodiscard]] bool link_allowed(std::size_t a, std::size_t b) const {
    if (is_node_down(a) || is_node_down(b)) return false;
    return partition_.empty() ||
           (a < partition_.size() && b < partition_.size() &&
            partition_[a] == partition_[b]);
  }

  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  // --- phy-level work counters (what transmit() decided per receiver) ---
  // Receptions scheduled (one per in-range, un-suppressed receiver).
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  // In-range receivers skipped because the receiver was down...
  [[nodiscard]] std::uint64_t suppressed_down() const { return suppressed_down_; }
  // ...or on the other side of an active partition. Counting only
  // in-range receivers keeps all three counters identical whether the
  // spatial index or the brute-force scan found the receiver.
  [[nodiscard]] std::uint64_t suppressed_partition() const { return suppressed_partition_; }

  [[nodiscard]] double distance_between(std::size_t a, std::size_t b) const;

  // True when receiver lookup goes through the spatial index
  // (PhyParams::use_spatial_index).
  [[nodiscard]] bool spatial_index_enabled() const { return use_index_; }
  // The live index, or nullptr before the first transmit / when disabled.
  [[nodiscard]] const SpatialIndex* spatial_index() const { return index_.get(); }

  // The batched delivery engine, or nullptr when the per-receiver
  // reference engine is selected (PhyParams::use_batched_phy). Radios
  // pick their state backend from this at construction.
  [[nodiscard]] BatchedPhy* batched_engine() { return batched_.get(); }
  // --- batched-engine elision accounting (zero in the reference engine;
  // see stats::NetworkTotals::phy_events_elided) ---
  // Receptions resolved analytically with no completion event scheduled.
  [[nodiscard]] std::uint64_t rx_elided() const;
  // Live receivers beyond the first swept by one completion event.
  [[nodiscard]] std::uint64_t rx_coalesced() const;

 private:
  friend class BatchedPhy;

  // Pooled receiver buffers for the delivery/completion event lambdas.
  // The pool is shared_ptr-held because the lambdas (and their
  // pool-returning deleters) can outlive the Channel: harness::Network
  // destroys the channel before the simulator.
  using RxBuf = std::vector<std::uint32_t>;
  struct RxBufPool {
    std::vector<std::unique_ptr<RxBuf>> free_list;
  };
  [[nodiscard]] std::shared_ptr<RxBuf> acquire_rx_buf();

  // Delivery-time dispatch for one frame's receiver group: per-receiver
  // begin_reception in the reference engine, one batched-engine group
  // (with the cell-timeline verdict) otherwise.
  void deliver_to(const RxBuf& rx, const std::shared_ptr<const mac::Frame>& frame,
                  sim::SimTime end, std::size_t cell_col, std::size_t cell_row);

  // --- per-cell airtime timeline (batched engine + spatial index only) --
  // cell_busy_until_[row * nx + col] is a monotone high-water mark over
  // the completion times of every frame group delivered with its sender
  // in that cell, stamped over the 3x3 cell window that provably contains
  // all its receivers. A new group whose 5x5 window (one extra ring
  // absorbs node motion between stamp and query) is strictly below `now`
  // is uncontended: no receiver can have a reception in flight, so the
  // engine's collision branches are skipped in one pass per cell.
  // Monotone maxima are never decremented — fully-elided groups need no
  // cleanup event; stale future stamps only cost the fast path.
  void ensure_timeline();
  void stamp_timeline(std::size_t col, std::size_t row, sim::SimTime end);
  [[nodiscard]] bool timeline_clear(std::size_t col, std::size_t row,
                                    sim::SimTime now) const;
  sim::Simulator& sim_;
  const mobility::MobilityModel& mobility_;
  PhyParams params_;
  std::vector<Radio*> radios_;
  DropHook drop_hook_;
  std::vector<std::uint8_t> down_;       // empty until a fault downs a node
  std::vector<std::uint8_t> partition_;  // empty while no cut is active
  std::uint64_t transmissions_{0};
  std::uint64_t deliveries_{0};
  std::uint64_t suppressed_down_{0};
  std::uint64_t suppressed_partition_{0};
  bool use_index_;
  std::unique_ptr<SpatialIndex> index_;   // built lazily at first transmit
  std::unique_ptr<BatchedPhy> batched_;   // nullptr in the reference engine
  // Receivers of the in-flight transmit with their propagation delay (us),
  // in ascending node order. Receivers sharing a delay are delivered by
  // one batched event: at unit-disk ranges the +1 us quantization makes
  // the delay identical for every receiver, so a transmission schedules
  // one event instead of one per receiver — with execution order
  // identical to per-receiver events (FIFO ties, ascending node order).
  std::vector<std::pair<std::int64_t, std::uint32_t>> pending_;
  // Distinct propagation delays of the in-flight transmit, in first-
  // occurrence order, each owning a pooled receiver buffer — the reused
  // scratch of the single-pass group-by (the delay count is 1 at
  // unit-disk ranges, so the per-entry scan over it is O(1)).
  std::vector<std::pair<std::int64_t, std::shared_ptr<RxBuf>>> groups_;
  std::shared_ptr<RxBufPool> rx_pool_;
  // Memoized airtime_of per wire_bytes value (index = bytes): the same
  // FP divide/cast was recomputed for every transmission on the hottest
  // path. -1 marks an uncomputed slot.
  mutable std::vector<std::int64_t> airtime_us_by_bytes_;
  std::vector<sim::SimTime> cell_busy_until_;  // empty until ensure_timeline
  std::size_t timeline_nx_{0};
  std::size_t timeline_ny_{0};
  bool timeline_wrap_x_{false};
};

}  // namespace ag::phy

#endif  // AG_PHY_CHANNEL_H
