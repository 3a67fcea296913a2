#include "gossip/nearest_member.h"

#include <algorithm>
#include <vector>

namespace ag::gossip {

void NearestMemberTracker::on_neighbor_added(net::GroupId group, net::NodeId neighbor,
                                             std::uint16_t member_distance_hint) {
  GroupState& g = groups_[group];
  g.values[neighbor.value()] = member_distance_hint == 0 ? kInfinity : member_distance_hint;
  g.last_advertised.erase(neighbor.value());  // force an initial MODIFY to the newcomer
  publish(group);
}

void NearestMemberTracker::on_neighbor_removed(net::GroupId group, net::NodeId neighbor) {
  GroupState* g = groups_.find(group);
  if (g == nullptr) return;
  g->values.erase(neighbor.value());
  g->last_advertised.erase(neighbor.value());
  publish(group);
}

void NearestMemberTracker::on_self_membership(net::GroupId group, bool member) {
  groups_[group].self_member = member;
  publish(group);
}

void NearestMemberTracker::on_update_received(net::GroupId group, net::NodeId from,
                                              std::uint16_t value) {
  GroupState& g = groups_[group];
  std::uint16_t* known = g.values.find(from.value());
  if (known == nullptr) return;  // not an activated hop (stale message)
  if (*known == value) return;
  *known = value;
  publish(group);
}

std::uint16_t NearestMemberTracker::value_for(net::GroupId group,
                                              net::NodeId neighbor) const {
  const GroupState* g = groups_.find(group);
  if (g == nullptr) return kInfinity;
  const std::uint16_t* value = g->values.find(neighbor.value());
  return value == nullptr ? kInfinity : *value;
}

std::uint16_t NearestMemberTracker::advertised_to(net::GroupId group,
                                                  net::NodeId exclude) const {
  const GroupState* g = groups_.find(group);
  if (g == nullptr) return kInfinity;
  if (g->self_member) return 1;  // this node itself is one hop from `exclude`
  std::uint16_t best = kInfinity;
  g->values.for_each([&](std::uint64_t neighbor, const std::uint16_t& value) {
    if (neighbor == exclude.value()) return;
    best = std::min(best, value);
  });
  return best == kInfinity ? kInfinity : static_cast<std::uint16_t>(best + 1);
}

void NearestMemberTracker::republish_all() {
  groups_.for_each([&](net::GroupId group, GroupState& state) {
    state.last_advertised.clear();
    publish(group);
  });
}

void NearestMemberTracker::publish(net::GroupId group) {
  GroupState* found = groups_.find(group);
  if (found == nullptr) return;
  GroupState& g = *found;
  std::vector<net::NodeId> neighbors;
  neighbors.reserve(g.values.size());
  g.values.for_each(
      [&](std::uint64_t key, std::uint16_t&) { neighbors.push_back(net::node_of(key)); });
  std::sort(neighbors.begin(), neighbors.end());
  for (const net::NodeId neighbor : neighbors) {
    const std::uint16_t value = advertised_to(group, neighbor);
    auto [advertised, inserted] = g.last_advertised.try_emplace(neighbor.value(), value);
    if (!inserted) {
      if (*advertised == value) continue;  // unchanged: suppress (paper 4.2)
      *advertised = value;
    }
    send_(group, neighbor, value);
  }
}

}  // namespace ag::gossip
