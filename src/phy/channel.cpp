#include "phy/channel.h"

#include <cassert>
#include <cmath>
#include <cstddef>

#include "mobility/vec2.h"
#include "phy/batched_phy.h"
#include "phy/radio.h"

namespace ag::phy {

Channel::Channel(sim::Simulator& sim, const mobility::MobilityModel& mobility,
                 PhyParams params)
    : sim_{sim},
      mobility_{mobility},
      params_{params},
      use_index_{params.use_spatial_index},
      rx_pool_{std::make_shared<RxBufPool>()} {
  if (params.use_batched_phy) {
    batched_ = std::make_unique<BatchedPhy>(sim_, *this);
  }
}

Channel::~Channel() = default;

void Channel::attach(Radio* radio) {
  assert(radio != nullptr);
  assert(radio->node_index() == radios_.size() && "attach in node-index order");
  radios_.push_back(radio);
  if (batched_ != nullptr) batched_->attach(radio);
}

sim::Duration Channel::airtime_of(const mac::Frame& frame) const {
  // Memoized per wire_bytes value: frame sizes repeat endlessly (ACKs,
  // hellos, the workload's payload), and this sat on the hottest path.
  const std::uint32_t bytes = frame.wire_bytes();
  if (bytes >= airtime_us_by_bytes_.size()) {
    airtime_us_by_bytes_.resize(bytes + 1, -1);
  }
  std::int64_t& us = airtime_us_by_bytes_[bytes];
  if (us < 0) {
    const double payload_us =
        static_cast<double>(bytes) * 8.0 * 1e6 / params_.bitrate_bps;
    us = static_cast<std::int64_t>(params_.phy_overhead_us + payload_us);
  }
  return sim::Duration::us(us);
}

std::uint64_t Channel::rx_elided() const {
  return batched_ != nullptr ? batched_->rx_elided() : 0;
}

std::uint64_t Channel::rx_coalesced() const {
  return batched_ != nullptr ? batched_->rx_coalesced() : 0;
}

std::shared_ptr<Channel::RxBuf> Channel::acquire_rx_buf() {
  std::unique_ptr<RxBuf> buf;
  if (!rx_pool_->free_list.empty()) {
    buf = std::move(rx_pool_->free_list.back());
    rx_pool_->free_list.pop_back();
    buf->clear();
  } else {
    buf = std::make_unique<RxBuf>();
  }
  // The deleter returns the buffer to the pool and holds the pool alive,
  // so buffers captured in event lambdas stay safe past Channel teardown
  // (harness::Network destroys the channel before the simulator).
  std::shared_ptr<RxBufPool> pool = rx_pool_;
  return {buf.release(),
          [pool = std::move(pool)](RxBuf* b) { pool->free_list.emplace_back(b); }};
}

double Channel::distance_between(std::size_t a, std::size_t b) const {
  const sim::SimTime now = sim_.now();
  return mobility::distance(mobility_.position_of(a, now), mobility_.position_of(b, now));
}

void Channel::set_node_down(std::size_t node, bool down) {
  if (node >= radios_.size()) return;
  if (down_.size() < radios_.size()) down_.resize(radios_.size(), 0);
  down_[node] = down ? 1 : 0;
  // Going down kills any frame currently being received; the first-bit
  // guard in transmit() only covers frames that had not yet arrived.
  if (down) radios_[node]->abort_receptions();
}

void Channel::set_partition(std::vector<std::uint8_t> side_of_node) {
  assert(side_of_node.size() == radios_.size() && "one side per attached radio");
  partition_ = std::move(side_of_node);
}

void Channel::transmit(std::size_t sender, const mac::Frame& frame) {
  if (is_node_down(sender)) return;  // a downed radio radiates nothing
  ++transmissions_;
  const sim::SimTime now = sim_.now();
  const sim::Duration airtime = airtime_of(frame);
  const mobility::Vec2 from = mobility_.position_of(sender, now);
  const double range_sq =
      params_.transmission_range_m * params_.transmission_range_m;

  pending_.clear();
  auto consider = [&](std::size_t i) {
    if (i == sender) return;
    const double d_sq = mobility::distance_sq(from, mobility_.position_of(i, now));
    if (d_sq > range_sq) return;
    if (!down_.empty() && down_[i] != 0) {
      ++suppressed_down_;
      return;
    }
    if (!partition_.empty() && partition_[i] != partition_[sender]) {
      ++suppressed_partition_;
      return;
    }
    if (drop_hook_ && drop_hook_(sender, i)) return;
    const double d = std::sqrt(d_sq);  // true distance: propagation delay
    const auto prop_us =
        static_cast<std::int64_t>(d / params_.propagation_mps * 1e6) + 1;
    ++deliveries_;
    pending_.emplace_back(prop_us, static_cast<std::uint32_t>(i));
  };

  if (use_index_) {
    // (Re)build on first use or when radios were attached since — the
    // index covers exactly the receivers the scan would visit.
    if (index_ == nullptr || index_->node_count() != radios_.size()) {
      // Tight margin (0.1 x range instead of the 0.25 default): smaller
      // cells mean fewer bucketed neighbors scanned and a sharper
      // range + margin prefilter per transmit, while the extra rebuilds
      // (epoch = margin / max_speed) stay a rounding error next to the
      // per-transmit scan. Candidate sets remain supersets of the true
      // receivers at any margin, so results are bit-identical.
      index_ = std::make_unique<SpatialIndex>(mobility_, radios_.size(),
                                              params_.transmission_range_m,
                                              /*margin_fraction=*/0.1);
    }
    index_->refresh_if_stale(now);
    // Epoch-cached candidate set: the cell scan + sort amortizes over
    // every transmission this sender makes before the next rebuild; the
    // exact range check below stays per-transmission.
    for (const std::uint32_t i : index_->candidates_for(sender, from)) consider(i);
  } else {
    for (std::size_t i = 0; i < radios_.size(); ++i) consider(i);
  }
  if (pending_.empty()) return;

  // One immutable frame shared by every receiver (zero-copy delivery),
  // and one scheduled event per distinct propagation delay, delivering to
  // its receivers in ascending node order. Delivery times and ordering
  // are identical to scheduling one event per receiver (equal-time events
  // fire FIFO, and per-receiver events were scheduled in ascending node
  // order); at unit-disk ranges the quantized delay is the same for every
  // receiver, so this is almost always a single event per transmission.
  //
  // Grouping is a single pass over pending_ (ascending node order):
  // each entry appends to its delay's pooled receiver buffer, distinct
  // delays kept in first-occurrence order — the same groups in the same
  // schedule order as scanning pending_ once per distinct delay, without
  // the quadratic rescan or a fresh heap allocation per event. The inner
  // scan is over *distinct delays* (1 at unit-disk ranges), not entries.
  const auto shared = std::make_shared<const mac::Frame>(frame);
  groups_.clear();
  for (const auto& [p, i] : pending_) {
    std::shared_ptr<RxBuf>* buf = nullptr;
    for (auto& [delay, b] : groups_) {
      if (delay == p) {
        buf = &b;
        break;
      }
    }
    if (buf == nullptr) {
      groups_.emplace_back(p, acquire_rx_buf());
      buf = &groups_.back().second;
    }
    (*buf)->push_back(i);
  }
  // Sender cell for the per-cell airtime timeline (batched engine with
  // the spatial index only; the brute-force scan runs every group down
  // the contended path).
  std::size_t cell_col = 0;
  std::size_t cell_row = 0;
  if (batched_ != nullptr && index_ != nullptr) {
    ensure_timeline();
    const auto cell = index_->cell_of(from);
    cell_col = cell.first;
    cell_row = cell.second;
  }
  for (auto& [prop_us, rx] : groups_) {
    const auto prop = sim::Duration::us(prop_us);
    const sim::SimTime end = now + prop + airtime;
    sim_.schedule_after(
        prop,
        [this, shared, end, cell_col, cell_row, rx = std::move(rx)] {
          deliver_to(*rx, shared, end, cell_col, cell_row);
        },
        sim::EventCategory::phy_delivery);
  }
  groups_.clear();  // drop the moved-from shells, keep the delay scratch
}

void Channel::deliver_to(const RxBuf& rx, const std::shared_ptr<const mac::Frame>& frame,
                         sim::SimTime end, std::size_t cell_col, std::size_t cell_row) {
  if (batched_ == nullptr) {
    for (const std::uint32_t i : rx) {
      if (is_node_down(i)) continue;  // crashed between send and first bit
      radios_[i]->begin_reception(frame, end);
    }
    return;
  }
  // Receptions begun directly on a Radio (unit tests) are tracked outside
  // the timeline, so the uncontended verdict stands down while any is in
  // flight.
  const bool uncontended = !cell_busy_until_.empty() &&
                           !batched_->has_unstamped_live() &&
                           timeline_clear(cell_col, cell_row, sim_.now());
  const std::size_t live = batched_->deliver_group(frame, end, rx, uncontended);
  if (live > 0 && !cell_busy_until_.empty()) stamp_timeline(cell_col, cell_row, end);
}

void Channel::ensure_timeline() {
  if (index_ == nullptr) return;
  if (!cell_busy_until_.empty() && timeline_nx_ == index_->cols() &&
      timeline_ny_ == index_->rows()) {
    return;
  }
  // (Re)size carries the global high-water mark into every cell, so a
  // stamp from a previous grid (index rebuilt for a new node count) can
  // never be forgotten while its frames are still in flight.
  sim::SimTime floor = sim::SimTime::zero();
  for (const sim::SimTime t : cell_busy_until_) {
    if (t > floor) floor = t;
  }
  timeline_nx_ = index_->cols();
  timeline_ny_ = index_->rows();
  timeline_wrap_x_ = index_->wraps_x();
  cell_busy_until_.assign(timeline_nx_ * timeline_ny_, floor);
}

void Channel::stamp_timeline(std::size_t col, std::size_t row, sim::SimTime end) {
  // 3x3 window around the sender's cell: cells are sized >= range, so
  // every receiver of the group lies inside it at stamp time.
  const auto nx = static_cast<std::ptrdiff_t>(timeline_nx_);
  const auto ny = static_cast<std::ptrdiff_t>(timeline_ny_);
  for (std::ptrdiff_t dr = -1; dr <= 1; ++dr) {
    const std::ptrdiff_t r = static_cast<std::ptrdiff_t>(row) + dr;
    if (r < 0 || r >= ny) continue;
    for (std::ptrdiff_t dc = -1; dc <= 1; ++dc) {
      std::ptrdiff_t c = static_cast<std::ptrdiff_t>(col) + dc;
      if (timeline_wrap_x_) {
        c = (c + nx) % nx;  // highway wrap: modular column adjacency
      } else if (c < 0 || c >= nx) {
        continue;
      }
      sim::SimTime& cell = cell_busy_until_[static_cast<std::size_t>(r * nx + c)];
      if (end > cell) cell = end;
    }
  }
}

bool Channel::timeline_clear(std::size_t col, std::size_t row, sim::SimTime now) const {
  // 5x5 test window: one ring wider than the stamp, absorbing node
  // motion (and index staleness) between a stamp and this query. The
  // comparison is strict — a group completing exactly `now` may sweep
  // after this arrival in same-timestamp FIFO order, so its receivers
  // can still be mid-reception.
  const auto nx = static_cast<std::ptrdiff_t>(timeline_nx_);
  const auto ny = static_cast<std::ptrdiff_t>(timeline_ny_);
  for (std::ptrdiff_t dr = -2; dr <= 2; ++dr) {
    const std::ptrdiff_t r = static_cast<std::ptrdiff_t>(row) + dr;
    if (r < 0 || r >= ny) continue;
    for (std::ptrdiff_t dc = -2; dc <= 2; ++dc) {
      std::ptrdiff_t c = static_cast<std::ptrdiff_t>(col) + dc;
      if (timeline_wrap_x_) {
        c = (c + nx) % nx;
      } else if (c < 0 || c >= nx) {
        continue;
      }
      if (cell_busy_until_[static_cast<std::size_t>(r * nx + c)] >= now) return false;
    }
  }
  return true;
}

}  // namespace ag::phy
