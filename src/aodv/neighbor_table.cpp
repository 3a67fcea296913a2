#include "aodv/neighbor_table.h"

#include <algorithm>

namespace ag::aodv {

std::vector<net::NodeId> NeighborTable::sweep_expired(sim::SimTime cutoff) {
  std::vector<net::NodeId> expired;
  last_heard_.erase_if([&](std::uint64_t key, sim::SimTime& heard_at) {
    if (heard_at >= cutoff) return false;
    expired.push_back(net::node_of(key));
    return true;
  });
  std::sort(expired.begin(), expired.end());
  return expired;
}

}  // namespace ag::aodv
