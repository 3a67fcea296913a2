// IEEE 802.11 DSSS DCF timing constants (2 Mbps, the paper's MAC).
#ifndef AG_MAC_MAC_PARAMS_H
#define AG_MAC_MAC_PARAMS_H

#include <cstdint>

#include "sim/time.h"

namespace ag::mac {

struct MacParams {
  sim::Duration slot{sim::Duration::us(20)};
  sim::Duration sifs{sim::Duration::us(10)};
  sim::Duration difs{sim::Duration::us(50)};
  std::uint32_t cw_min{31};
  std::uint32_t cw_max{1023};
  std::uint32_t retry_limit{7};
  std::size_t queue_limit{50};  // interface queue, drop tail (ns-2 default)
  // Contention countdown engine (see mac/csma_mac.h): the analytic fused
  // DIFS+backoff deadline, or — when false — the per-slot reference
  // machine. Runs are bit-identical either way, only event counts
  // differ. Only tests and micro_core's A/B benches clear it.
  bool batched_backoff{true};
};

}  // namespace ag::mac

#endif  // AG_MAC_MAC_PARAMS_H
