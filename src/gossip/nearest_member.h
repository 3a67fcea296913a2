// The nearest-member gradient (paper section 4.2): every tree router
// keeps, per activated next hop, the distance to the nearest group member
// reachable through that hop. Values propagate as small MODIFY messages
// only when they change, exactly as described in the paper (D with next
// hops {B, C, E} and values {b, c, e} advertises 1 + min(c, e) to B, etc.;
// a member advertises 1 to everyone).
#ifndef AG_GOSSIP_NEAREST_MEMBER_H
#define AG_GOSSIP_NEAREST_MEMBER_H

#include <cstdint>
#include <functional>

#include "net/dense_map.h"
#include "net/ids.h"
#include "net/node_table.h"

namespace ag::gossip {

class NearestMemberTracker {
 public:
  static constexpr std::uint16_t kInfinity = 0xFFFF;

  // Sink for outgoing MODIFY messages: (group, neighbor, value).
  using SendFn = std::function<void(net::GroupId, net::NodeId, std::uint16_t)>;
  explicit NearestMemberTracker(SendFn send) : send_{std::move(send)} {}

  // Tree/membership events (driven by the RouterObserver callbacks).
  // `member_distance_hint` of 1 means the neighbor is known to be a member.
  void on_neighbor_added(net::GroupId group, net::NodeId neighbor,
                         std::uint16_t member_distance_hint);
  void on_neighbor_removed(net::GroupId group, net::NodeId neighbor);
  void on_self_membership(net::GroupId group, bool member);
  // MODIFY message received from a tree neighbor.
  void on_update_received(net::GroupId group, net::NodeId from, std::uint16_t value);

  // Distance to the nearest member through `neighbor` (kInfinity unknown).
  [[nodiscard]] std::uint16_t value_for(net::GroupId group, net::NodeId neighbor) const;
  // What this node would advertise to `exclude` right now.
  [[nodiscard]] std::uint16_t advertised_to(net::GroupId group, net::NodeId exclude) const;

  // Crash support: forget every group's gradient (state wipe on reboot).
  void clear() { groups_.clear(); }

  // Soft-state refresh: re-advertises current values to every neighbor,
  // bypassing change suppression. A MODIFY can be lost forever when it is
  // sent before the far side has activated the edge (tree activation is
  // not atomic across a link), so the gossip agent calls this every few
  // rounds.
  void republish_all();

 private:
  struct GroupState {
    bool self_member{false};
    // Both keyed by next hop (neighbor.value()).
    net::DenseMap<std::uint16_t> values;
    net::DenseMap<std::uint16_t> last_advertised;  // change suppression
  };

  // Re-derives advertised values for every neighbor of `group` (ascending
  // node order) and sends MODIFY messages for those that changed.
  void publish(net::GroupId group);

  SendFn send_;
  net::NodeTable<GroupState, net::GroupId> groups_;
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_NEAREST_MEMBER_H
