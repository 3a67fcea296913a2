#include "gossip/lost_table.h"

#include <algorithm>

namespace ag::gossip {

ReceiveOutcome LostTable::on_data(const net::MsgId& id) {
  std::uint32_t& expected = expected_[id.origin.value()];
  if (id.seq == expected) {
    expected = id.seq + 1;
    return ReceiveOutcome::in_order;
  }
  if (id.seq > expected) {
    for (std::uint32_t s = expected; s < id.seq; ++s) {
      add_lost(net::MsgId{id.origin, s});
    }
    expected = id.seq + 1;
    return ReceiveOutcome::created_holes;
  }
  // Older than expected: either a recovery or a duplicate.
  if (lost_.erase(net::msg_key(id))) {
    // Lazy removal from insertion_order_ happens in most_recent().
    return ReceiveOutcome::recovered;
  }
  return ReceiveOutcome::duplicate;
}

void LostTable::add_lost(const net::MsgId& id) {
  if (!lost_.insert(net::msg_key(id))) return;
  insertion_order_.push_back(id);
  while (lost_.size() > capacity_) {
    // Drop the oldest hole: with a full table the node gives up on the
    // most stale losses first (bounded memory, paper's table size 200).
    while (!insertion_order_.empty() &&
           !lost_.contains(net::msg_key(insertion_order_.front()))) {
      insertion_order_.pop_front();
    }
    if (insertion_order_.empty()) break;
    lost_.erase(net::msg_key(insertion_order_.front()));
    insertion_order_.pop_front();
    ++abandoned_;
  }
}

std::vector<net::MsgId> LostTable::most_recent(std::size_t max_count) const {
  std::vector<net::MsgId> out;
  out.reserve(std::min(max_count, lost_.size()));
  for (auto it = insertion_order_.rbegin();
       it != insertion_order_.rend() && out.size() < max_count; ++it) {
    if (lost_.contains(net::msg_key(*it))) out.push_back(*it);
  }
  return out;
}

std::vector<SenderExpectation> LostTable::expectations() const {
  std::vector<SenderExpectation> out;
  out.reserve(expected_.size());
  expected_.for_each([&](std::uint64_t sender, const std::uint32_t& seq) {
    out.push_back({net::node_of(sender), seq});
  });
  std::sort(out.begin(), out.end(),
            [](const SenderExpectation& a, const SenderExpectation& b) {
              return a.sender < b.sender;
            });
  return out;
}

std::uint32_t LostTable::expected_for(net::NodeId sender) const {
  const std::uint32_t* seq = expected_.find(sender.value());
  return seq == nullptr ? 0 : *seq;
}

}  // namespace ag::gossip
