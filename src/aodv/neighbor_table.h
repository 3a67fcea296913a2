// Hello-based neighbor liveness (paper: hello interval 600 ms, allowed
// hello loss 4). Any frame from a neighbor counts as a sign of life.
#ifndef AG_AODV_NEIGHBOR_TABLE_H
#define AG_AODV_NEIGHBOR_TABLE_H

#include <vector>

#include "net/ids.h"
#include "net/dense_map.h"
#include "sim/time.h"

namespace ag::aodv {

class NeighborTable {
 public:
  void heard(net::NodeId neighbor, sim::SimTime now) { last_heard_[neighbor.value()] = now; }
  void remove(net::NodeId neighbor) { last_heard_.erase(neighbor.value()); }

  [[nodiscard]] bool contains(net::NodeId neighbor) const {
    return last_heard_.contains(neighbor.value());
  }

  // Removes and returns all neighbors not heard since `cutoff`, in
  // ascending node order.
  std::vector<net::NodeId> sweep_expired(sim::SimTime cutoff);

  [[nodiscard]] std::size_t size() const { return last_heard_.size(); }

  // Crash support: forget every neighbor (state wipe on reboot).
  void clear() { last_heard_.clear(); }

 private:
  net::DenseMap<sim::SimTime> last_heard_;  // key: neighbor.value()
};

}  // namespace ag::aodv

#endif  // AG_AODV_NEIGHBOR_TABLE_H
