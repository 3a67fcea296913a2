#include "aodv/route_table.h"

#include <algorithm>

namespace ag::aodv {

RouteEntry* RouteTable::find(net::NodeId dest) { return entries_.find(dest.value()); }

const RouteEntry* RouteTable::find(net::NodeId dest) const {
  return entries_.find(dest.value());
}

RouteEntry* RouteTable::find_valid(net::NodeId dest, sim::SimTime now) {
  RouteEntry* e = find(dest);
  if (e == nullptr || !e->valid) return nullptr;
  if (e->expires < now) {
    e->valid = false;  // lazy expiry
    return nullptr;
  }
  return e;
}

bool RouteTable::offer(net::NodeId dest, net::SeqNo seq, bool seq_known,
                       std::uint8_t hops, net::NodeId next_hop, sim::SimTime expires) {
  auto [slot, inserted] = entries_.try_emplace(dest.value());
  RouteEntry& e = *slot;
  if (inserted) {
    e = RouteEntry{expires, dest, seq, next_hop, hops, seq_known, true};
    return true;
  }
  const bool fresher = seq_known && (!e.seq_known || seq.fresher_than(e.seq));
  const bool same_but_shorter =
      seq_known && e.seq_known && seq == e.seq && hops < e.hops;
  const bool replace = !e.valid || fresher || same_but_shorter ||
                       (!seq_known && !e.seq_known && hops < e.hops);
  if (!replace) {
    // Keep the route, but an equal offer through the same next hop still
    // refreshes the lifetime.
    if (e.valid && e.next_hop == next_hop && expires > e.expires) e.expires = expires;
    return false;
  }
  // Never lose sequence-number knowledge (draft: invalid entries retain
  // their last known sequence number).
  const bool kept_seq_known = e.seq_known && !seq_known;
  if (!kept_seq_known) {
    e.seq = seq;
    e.seq_known = seq_known;
  }
  e.hops = hops;
  e.next_hop = next_hop;
  e.expires = expires;
  e.valid = true;
  return true;
}

void RouteTable::refresh(net::NodeId dest, sim::SimTime expires) {
  RouteEntry* e = find(dest);
  if (e != nullptr && e->valid && expires > e->expires) e->expires = expires;
}

RouteEntry* RouteTable::invalidate(net::NodeId dest) {
  RouteEntry* e = find(dest);
  if (e == nullptr || !e->valid) return nullptr;
  e->valid = false;
  if (e->seq_known) e->seq = e->seq.next();
  return e;
}

std::vector<net::NodeId> RouteTable::dests_via(net::NodeId next_hop) const {
  std::vector<net::NodeId> out;
  entries_.for_each([&](std::uint64_t key, const RouteEntry& e) {
    if (e.valid && e.next_hop == next_hop) out.push_back(net::node_of(key));
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ag::aodv
