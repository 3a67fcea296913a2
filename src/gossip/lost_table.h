// The lost table (paper section 4.4): per-sender expected sequence numbers
// plus the set of sequence numbers this node believes it is missing. An
// entry appears whenever a message arrives with a sequence number beyond
// the expected one; it disappears when the hole is filled (recovery).
#ifndef AG_GOSSIP_LOST_TABLE_H
#define AG_GOSSIP_LOST_TABLE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "gossip/messages.h"
#include "net/data.h"
#include "net/dense_map.h"

namespace ag::gossip {

enum class ReceiveOutcome : std::uint8_t {
  in_order,      // exactly the expected sequence number
  created_holes, // ahead of expected; the gap was recorded as lost
  recovered,     // filled a recorded hole
  duplicate,     // already received (or hole long since abandoned)
};

class LostTable {
 public:
  explicit LostTable(std::size_t capacity) : capacity_{capacity} {}

  // Classifies an arriving message and updates expected/lost bookkeeping.
  ReceiveOutcome on_data(const net::MsgId& id);

  [[nodiscard]] bool contains(const net::MsgId& id) const {
    return lost_.contains(net::msg_key(id));
  }
  [[nodiscard]] std::size_t size() const { return lost_.size(); }
  // Holes evicted because the table overflowed (never recoverable again).
  [[nodiscard]] std::uint64_t abandoned() const { return abandoned_; }

  // The most recent `max_count` losses — the paper places "the most recent
  // entries of the lost table" into the gossip message's lost buffer.
  [[nodiscard]] std::vector<net::MsgId> most_recent(std::size_t max_count) const;

  // Expected sequence number per known sender, in ascending sender order.
  [[nodiscard]] std::vector<SenderExpectation> expectations() const;
  [[nodiscard]] std::uint32_t expected_for(net::NodeId sender) const;

 private:
  void add_lost(const net::MsgId& id);

  std::size_t capacity_;
  net::DenseMap<std::uint32_t> expected_;  // key: sender.value()
  net::DenseSet lost_;  // keyed net::msg_key
  std::deque<net::MsgId> insertion_order_;  // front = oldest
  std::uint64_t abandoned_{0};
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_LOST_TABLE_H
