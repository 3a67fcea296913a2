// Tracing taken from outside the program, at its public seams.
//
// Coarse spans (cell, setup, each run phase, result) are recorded one by
// one with their cell as the shared id and a parent link. Per-frame spans
// at the two seams — the MAC -> router listener and the router -> gossip
// observer — happen tens of millions of times on a 1000-node run, so they
// are folded as they close into per-kind call counts and self times.
// Self time is a span's duration minus the part of it that its child
// spans cover: a gossip observer call made while a routing rx call is
// open is subtracted from that rx call.
#ifndef AG_PERFBENCH_TRACE_H
#define AG_PERFBENCH_TRACE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gossip/routing_adapter.h"
#include "mac/csma_mac.h"

namespace perfbench {

struct Interval {
  std::int64_t start{0};
  std::int64_t end{0};
};

// Duration of `parent` minus the union of `children` clipped to it.
[[nodiscard]] std::int64_t self_time_ns(Interval parent, std::vector<Interval> children);

inline constexpr std::size_t kNoParent = ~std::size_t{0};

// One recorded coarse span. `folded_ns` is seam time folded into it (the
// top-level seam spans that ran inside a phase).
struct Span {
  std::string name;
  std::size_t id{0};
  std::size_t parent{kNoParent};
  std::size_t cell{0};
  Interval at;
  std::int64_t folded_ns{0};
};

// Self time of each span in `spans` (same order): duration minus the
// union of its recorded children's intervals and its folded seam time.
[[nodiscard]] std::vector<std::int64_t> span_self_times(const std::vector<Span>& spans);

enum class Seam : std::uint8_t { routing_rx, routing_unicast_failed, gossip_observer };
inline constexpr std::size_t kSeamCount = 3;

// Stack-based fold of nested seam spans into per-kind totals.
class SeamFold {
 public:
  struct Totals {
    std::uint64_t calls{0};
    std::int64_t self_ns{0};
  };

  void open(Seam kind, std::int64_t now);
  void close(std::int64_t now);

  [[nodiscard]] const Totals& totals(Seam kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  // Summed duration of the outermost seam spans: the host time the
  // program spent inside either seam.
  [[nodiscard]] std::int64_t top_level_ns() const { return top_level_ns_; }
  [[nodiscard]] bool idle() const { return stack_.empty(); }

 private:
  struct Open {
    Seam kind;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::array<Totals, kSeamCount> totals_{};
  std::int64_t top_level_ns_{0};
};

// Forwarding MAC listener installed in front of a router: every frame the
// MAC delivers up, and every unicast it gives up on, is one seam span.
class RxSeam final : public ag::mac::MacListener {
 public:
  RxSeam(ag::mac::MacListener& inner, SeamFold& fold) : inner_{&inner}, fold_{&fold} {}

  void on_packet_received(const ag::net::Packet& packet, ag::net::NodeId from) override;
  void on_unicast_failed(const ag::net::Packet& packet, ag::net::NodeId next_hop) override;

 private:
  ag::mac::MacListener* inner_;
  SeamFold* fold_;
};

// Forwarding router observer installed in front of a node's gossip agent.
class ObserverSeam final : public ag::gossip::RouterObserver {
 public:
  ObserverSeam(ag::gossip::RouterObserver& inner, SeamFold& fold)
      : inner_{&inner}, fold_{&fold} {}

  void on_multicast_data(const ag::net::MulticastData& data, ag::net::NodeId from) override;
  void on_tree_neighbor_added(ag::net::GroupId group, ag::net::NodeId neighbor,
                              std::uint16_t member_distance_hint) override;
  void on_tree_neighbor_removed(ag::net::GroupId group, ag::net::NodeId neighbor) override;
  void on_self_membership_changed(ag::net::GroupId group, bool member) override;
  void on_member_learned(ag::net::GroupId group, ag::net::NodeId member,
                         std::uint8_t hops) override;
  void on_gossip_packet(const ag::net::Packet& packet, ag::net::NodeId from) override;

 private:
  ag::gossip::RouterObserver* inner_;
  SeamFold* fold_;
};

}  // namespace perfbench

#endif  // AG_PERFBENCH_TRACE_H
