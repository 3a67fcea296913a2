// CSMA/CA MAC in the style of the 802.11 DCF: physical carrier sense,
// DIFS deference, slotted binary-exponential backoff that freezes while
// the medium is busy, positive ACK with retransmission for unicast, and
// unacknowledged single-shot broadcast. RTS/CTS and the NAV are omitted
// (64-byte data frames sit below any reasonable RTS threshold; see
// DESIGN.md). Failed unicasts surface as link-break feedback to routing.
//
// The contention countdown is event-elided by default: DIFS deference and
// the remaining backoff slots fuse into ONE scheduled deadline, and a
// busy transition pauses analytically — whole slots elapsed since DIFS
// completion are credited in O(1), the partial slot in progress is
// forfeited, exactly as the per-slot tick machine would have done. The
// per-slot reference machine stays alive behind
// MacParams::batched_backoff = false (read at construction), and whole
// runs are bit-identical either way; see ARCHITECTURE.md "MAC
// contention".
#ifndef AG_MAC_CSMA_MAC_H
#define AG_MAC_CSMA_MAC_H

#include <cstdint>
#include <deque>
#include <utility>

#include "mac/frame.h"
#include "mac/mac_params.h"
#include "net/data_plane.h"
#include "net/dense_map.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace ag::mac {

// Implemented by the routing layer.
class MacListener {
 public:
  virtual ~MacListener() = default;
  virtual void on_packet_received(const net::Packet& packet, net::NodeId from) = 0;
  // Retry limit exhausted: the link to next_hop is considered broken.
  virtual void on_unicast_failed(const net::Packet& packet, net::NodeId next_hop) = 0;
};

// Promiscuous observation tap: every in-range data frame the radio
// decodes (including unicasts addressed to other nodes, before the
// destination filter and rx dedup) plus this MAC's own data
// transmissions. Pure observation — a sniffer cannot alter what the MAC
// delivers or sends. Null by default: the only cost to the hot path when
// unset is one predictable branch per data frame. The trust layer
// (faults::AdversaryRouter) is the one consumer.
class MacSniffer {
 public:
  virtual ~MacSniffer() = default;
  virtual void on_frame_overheard(const Frame& frame) = 0;
  virtual void on_frame_transmitted(const Frame& frame) = 0;
};

class CsmaMac final : public phy::RadioListener {
 public:
  CsmaMac(sim::Simulator& sim, phy::Radio& radio, const phy::Channel& channel,
          net::NodeId self, MacParams params, sim::Rng rng);

  void set_listener(MacListener* listener) { listener_ = listener; }
  void set_sniffer(MacSniffer* sniffer) { sniffer_ = sniffer; }

  // Queues a shared packet for `mac_dst` (a neighbor or broadcast()).
  // Returns false when the interface queue is full (packet dropped). The
  // same allocation flows through the queue, the frame, and the channel.
  bool send(net::NodeId mac_dst, net::PacketPtr packet);
  // Convenience for call sites holding a fresh packet by value: wraps it
  // in the thread-local pool.
  bool send(net::NodeId mac_dst, net::Packet packet) {
    return send(mac_dst, net::PacketPool::local().make(std::move(packet)));
  }

  // Crash support (FaultInjector): drops the interface queue and every
  // retransmission/backoff state, as a power-cycle would. A frame already
  // on the air finishes harmlessly.
  void power_cycle();

  [[nodiscard]] net::NodeId self() const { return self_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] sim::SimTime now() const { return sim_.now(); }

  struct Counters {
    std::uint64_t unicast_sent{0};
    std::uint64_t broadcast_sent{0};
    std::uint64_t acks_sent{0};
    // ACKs we owed but never radiated because our radio was mid-
    // transmission when the SIFS expired (the sender will retry).
    std::uint64_t acks_suppressed{0};
    std::uint64_t retries{0};
    std::uint64_t unicast_failed{0};
    std::uint64_t queue_drops{0};
    std::uint64_t delivered_up{0};
    std::uint64_t dup_frames_dropped{0};
    // Whole backoff slots consumed by the countdown (each decrement of
    // backoff_slots_, whether ticked one event at a time or credited
    // analytically in a batch). Engine-independent by construction —
    // the equivalence suite pins it across both countdown engines.
    std::uint64_t backoff_slots_credited{0};
    // DIFS waits the fused deadline absorbed: countdowns that served a
    // DIFS remainder *and* backoff slots in one event, where the
    // per-slot reference would have executed a separate mac_difs event
    // at the anchor. Always zero in the reference engine; executed
    // mac_difs events + difs_events_elided is engine-independent.
    std::uint64_t difs_events_elided{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // RadioListener:
  void on_frame_received(const Frame& frame) override;
  void on_medium_busy() override;
  void on_medium_idle() override;
  void on_transmit_complete() override;

 private:
  enum class State : std::uint8_t {
    idle,          // queue empty
    contending,    // waiting for DIFS + backoff countdown
    tx_data,       // our data frame is on the air
    tx_ack,        // our ACK is on the air (contention paused)
    awaiting_ack,  // unicast sent, ACK timer running
  };

  struct Outgoing {
    net::NodeId dst;
    net::PacketPtr packet;
  };

  void begin_access();
  void resume_contention();
  void pause_contention();
  void on_difs_elapsed();
  void on_slot_elapsed();
  void on_countdown_elapsed();
  void start_transmission();
  void on_ack_timeout();
  void transmission_succeeded();
  void give_up_current();
  void finish_current_and_continue();
  void draw_backoff();
  void send_ack(net::NodeId to, std::uint16_t seq);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  const phy::Channel& channel_;
  net::NodeId self_;
  MacParams params_;
  sim::Rng rng_;
  MacListener* listener_{nullptr};
  MacSniffer* sniffer_{nullptr};

  std::deque<Outgoing> queue_;
  State state_{State::idle};
  std::uint32_t cw_;
  std::uint32_t backoff_slots_{0};
  std::uint32_t retries_{0};
  std::uint16_t next_mac_seq_{0};
  bool difs_done_{false};
  const bool batched_;  // analytic fused countdown vs per-slot reference

  sim::Timer access_timer_;  // fused deadline, or DIFS + per-slot ticks
  sim::Timer ack_timer_;
  // Batched engine: the instant DIFS deference completes for the armed
  // countdown — backoff slots are counted from here. Valid only while
  // access_timer_ is pending in batched mode.
  sim::SimTime countdown_anchor_;
  // The DIFS remainder the armed fused deadline covers in addition to
  // backoff slots (zero when DIFS was already served — the reference
  // engine would run a separate difs event at the anchor otherwise).
  // Valid under the same condition as the anchor; drives the
  // difs_events_elided accounting, including the exact-anchor tie rule.
  sim::Duration fused_difs_remaining_;
  // Upper bound on any in-range sender's quantized propagation delay
  // (from the channel's range and propagation speed), used by the
  // exact-anchor tie rule in pause_contention.
  sim::Duration max_propagation_;

  // Last mac_seq accepted per neighbor: drops MAC-level retransmission
  // duplicates (data received, ACK lost, sender retried).
  net::DenseMap<std::uint16_t> last_rx_seq_;  // key: neighbor.value()

  Counters counters_;
};

}  // namespace ag::mac

#endif  // AG_MAC_CSMA_MAC_H
