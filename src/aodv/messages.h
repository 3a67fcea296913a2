// AODV control messages (IETF draft-ietf-manet-aodv-05), extended with the
// multicast (MAODV) fields carried by the same message types. Pure data —
// the wire format of the protocol.
#ifndef AG_AODV_MESSAGES_H
#define AG_AODV_MESSAGES_H

#include <cstdint>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace ag::aodv {

struct RreqMsg {
  std::uint32_t rreq_id{0};  // unique per origin; (origin, rreq_id) dedups the flood
  net::NodeId origin;
  net::SeqNo origin_seq;
  net::NodeId dest;  // unicast target; invalid() for pure multicast joins
  net::SeqNo dest_seq;
  bool dest_seq_known{false};
  std::uint8_t hop_count{0};

  // MAODV extensions.
  bool join{false};    // J flag: requesting to join `group`
  bool repair{false};  // R flag: tree repair / partition merge
  net::GroupId group{net::GroupId::invalid()};
  net::SeqNo group_seq;           // last known group sequence number
  bool group_seq_known{false};
  // Multicast Group Leader extension: requester's hop count to the leader;
  // during repair only tree nodes strictly closer to the leader may reply.
  std::uint16_t mgl_hop_count{0};
  bool mgl_present{false};
};

struct RrepMsg {
  net::NodeId dest;  // route target this RREP describes (node or tree responder)
  net::SeqNo dest_seq;
  net::NodeId origin;  // RREQ originator the RREP travels back to
  std::uint8_t hop_count{0};
  sim::Duration lifetime{sim::Duration::ms(3000)};

  // MAODV extensions.
  bool join{false};
  net::GroupId group{net::GroupId::invalid()};
  net::SeqNo group_seq;
  net::NodeId group_leader{net::NodeId::invalid()};
  std::uint16_t mgl_hop_count{0};  // responder's distance to the group leader
  net::NodeId responder{net::NodeId::invalid()};  // tree node that generated this RREP
  bool responder_is_member{false};  // feeds the gossip member cache for free
};

// Route error: lists destinations that became unreachable through the
// sender. Broadcast to neighbors (we do not keep precursor lists; see
// ARCHITECTURE.md "Model simplifications" for what that costs).
struct RerrMsg {
  struct Unreachable {
    net::NodeId dest;
    net::SeqNo dest_seq;
  };
  std::vector<Unreachable> unreachable;
};

// 1-hop beacon: hello interval 600 ms, allowed loss 4 (paper section 5.1).
struct HelloMsg {
  net::NodeId origin;
  net::SeqNo origin_seq;
};

}  // namespace ag::aodv

#endif  // AG_AODV_MESSAGES_H
