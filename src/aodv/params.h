// AODV protocol constants. Paper-pinned values: hello interval 600 ms,
// allowed hello loss 4 (section 5.1). Timing constants are scaled to the
// paper's small (≤ 10 hop) networks rather than the draft's NET_DIAMETER=35.
#ifndef AG_AODV_PARAMS_H
#define AG_AODV_PARAMS_H

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ag::aodv {

struct AodvParams {
  sim::Duration active_route_timeout{sim::Duration::ms(3000)};
  sim::Duration reverse_route_life{sim::Duration::ms(3000)};
  sim::Duration hello_interval{sim::Duration::ms(600)};
  std::uint32_t allowed_hello_loss{4};
  std::uint32_t rreq_retries{2};
  // First-wait for RREPs; doubles on each retry (binary backoff).
  sim::Duration rreq_wait{sim::Duration::ms(500)};
  sim::Duration path_discovery_time{sim::Duration::ms(5000)};  // RREQ dedup cache
  std::uint8_t net_ttl{16};
  std::size_t max_buffered_per_dest{5};

  [[nodiscard]] sim::Duration neighbor_lifetime() const {
    return hello_interval * static_cast<std::int64_t>(allowed_hello_loss);
  }
};

}  // namespace ag::aodv

#endif  // AG_AODV_PARAMS_H
