#include "trace.h"

#include <algorithm>
#include <map>

#include "measure.h"

namespace perfbench {

std::int64_t self_time_ns(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;  // end of the union merged so far
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.start) - covered;
}

std::vector<std::int64_t> span_self_times(const std::vector<Span>& spans) {
  std::map<std::size_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != kNoParent) children[s.parent].push_back(s.at);
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    out.push_back(self_time_ns(s.at, it == children.end() ? std::vector<Interval>{}
                                                          : it->second) -
                  s.folded_ns);
  }
  return out;
}

void SeamFold::open(Seam kind, std::int64_t now) { stack_.push_back({kind, now, 0}); }

void SeamFold::close(std::int64_t now) {
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now - span.start;
  Totals& t = totals_[static_cast<std::size_t>(span.kind)];
  ++t.calls;
  t.self_ns += duration - span.child_ns;
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

namespace {

// Opens a seam span on construction and closes it on scope exit, so a
// throwing callee still leaves the fold balanced.
class SeamScope {
 public:
  SeamScope(SeamFold& fold, Seam kind) : fold_{fold} { fold_.open(kind, now_ns()); }
  ~SeamScope() { fold_.close(now_ns()); }
  SeamScope(const SeamScope&) = delete;
  SeamScope& operator=(const SeamScope&) = delete;

 private:
  SeamFold& fold_;
};

}  // namespace

void RxSeam::on_packet_received(const ag::net::Packet& packet, ag::net::NodeId from) {
  const SeamScope scope{*fold_, Seam::routing_rx};
  inner_->on_packet_received(packet, from);
}

void RxSeam::on_unicast_failed(const ag::net::Packet& packet, ag::net::NodeId next_hop) {
  const SeamScope scope{*fold_, Seam::routing_unicast_failed};
  inner_->on_unicast_failed(packet, next_hop);
}

void ObserverSeam::on_multicast_data(const ag::net::MulticastData& data,
                                     ag::net::NodeId from) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_multicast_data(data, from);
}

void ObserverSeam::on_tree_neighbor_added(ag::net::GroupId group, ag::net::NodeId neighbor,
                                          std::uint16_t member_distance_hint) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_tree_neighbor_added(group, neighbor, member_distance_hint);
}

void ObserverSeam::on_tree_neighbor_removed(ag::net::GroupId group,
                                            ag::net::NodeId neighbor) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_tree_neighbor_removed(group, neighbor);
}

void ObserverSeam::on_self_membership_changed(ag::net::GroupId group, bool member) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_self_membership_changed(group, member);
}

void ObserverSeam::on_member_learned(ag::net::GroupId group, ag::net::NodeId member,
                                     std::uint8_t hops) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_member_learned(group, member, hops);
}

void ObserverSeam::on_gossip_packet(const ag::net::Packet& packet, ag::net::NodeId from) {
  const SeamScope scope{*fold_, Seam::gossip_observer};
  inner_->on_gossip_packet(packet, from);
}

}  // namespace perfbench
