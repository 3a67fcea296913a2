// The AODV Route Table (paper section 3): next hop, destination sequence
// number, hop count and lifetime per destination, with the draft's
// freshness rules for accepting new routing information.
#ifndef AG_AODV_ROUTE_TABLE_H
#define AG_AODV_ROUTE_TABLE_H

#include <cstdint>
#include <vector>

#include "net/ids.h"
#include "net/dense_map.h"
#include "sim/time.h"

namespace ag::aodv {

// Packed for the 1000-node cache footprint: the 8-byte expiry leads so
// the three 4-byte ids follow with no alignment holes, and the flag
// bytes share the tail padding — 24 bytes per entry instead of the 32
// the old interleaved layout burned on padding. RouteTable keeps them in
// a DenseMap keyed by destination, sized by the routes a node holds.
struct RouteEntry {
  sim::SimTime expires;
  net::NodeId dest;
  net::SeqNo seq;
  net::NodeId next_hop;
  std::uint8_t hops{0};
  bool seq_known{false};
  bool valid{false};
};
static_assert(sizeof(RouteEntry) == 24, "RouteEntry must stay 24 bytes");

class RouteTable {
 public:
  // Valid, unexpired entry or nullptr. Expired entries are invalidated
  // lazily on lookup.
  [[nodiscard]] RouteEntry* find_valid(net::NodeId dest, sim::SimTime now);
  [[nodiscard]] RouteEntry* find(net::NodeId dest);
  [[nodiscard]] const RouteEntry* find(net::NodeId dest) const;

  // Offers new routing information, applying the draft's update rule:
  // accept when the entry is missing or invalid, the sequence number is
  // fresher, or it is equal with a smaller hop count. Unknown-sequence
  // offers only ever replace invalid/unknown entries. Returns true if the
  // table changed.
  bool offer(net::NodeId dest, net::SeqNo seq, bool seq_known, std::uint8_t hops,
             net::NodeId next_hop, sim::SimTime expires);

  // Extends the lifetime of a valid entry (route was used).
  void refresh(net::NodeId dest, sim::SimTime expires);

  // Marks the entry invalid and bumps its sequence number (draft rule for
  // broken routes). No-op if absent. Returns the invalidated entry or null.
  RouteEntry* invalidate(net::NodeId dest);

  // All valid destinations currently routed through `next_hop`, in
  // ascending node order.
  [[nodiscard]] std::vector<net::NodeId> dests_via(net::NodeId next_hop) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // Crash support: forget every route (state wipe on reboot).
  void clear() { entries_.clear(); }

 private:
  net::DenseMap<RouteEntry> entries_;  // key: dest.value()
};

}  // namespace ag::aodv

#endif  // AG_AODV_ROUTE_TABLE_H
