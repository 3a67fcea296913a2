#include "mac/csma_mac.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ag::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, phy::Radio& radio, const phy::Channel& channel,
                 net::NodeId self, MacParams params, sim::Rng rng)
    : sim_{sim},
      radio_{radio},
      channel_{channel},
      self_{self},
      params_{params},
      rng_{rng},
      cw_{params.cw_min},
      batched_{params.batched_backoff},
      // Nominal category only: every restart() below passes its own
      // (mac_slot or mac_difs depending on the phase being armed).
      access_timer_{sim,
                    [this] {
                      if (batched_) {
                        on_countdown_elapsed();
                      } else if (difs_done_) {
                        on_slot_elapsed();
                      } else {
                        on_difs_elapsed();
                      }
                    },
                    sim::EventCategory::mac_slot},
      ack_timer_{sim, [this] { on_ack_timeout(); }, sim::EventCategory::mac_ack_timeout} {
  // Mirror of the channel's per-receiver delay quantization
  // (floor(d/c) + 1 us, d <= transmission range).
  max_propagation_ = sim::Duration::us(
      static_cast<std::int64_t>(channel.params().transmission_range_m /
                                channel.params().propagation_mps * 1e6) +
      1);
  radio_.set_listener(this);
}

bool CsmaMac::send(net::NodeId mac_dst, net::PacketPtr packet) {
  if (queue_.size() >= params_.queue_limit) {
    ++counters_.queue_drops;
    return false;
  }
  queue_.push_back(Outgoing{mac_dst, std::move(packet)});
  if (state_ == State::idle) begin_access();
  return true;
}

void CsmaMac::power_cycle() {
  access_timer_.cancel();
  ack_timer_.cancel();
  queue_.clear();
  last_rx_seq_.clear();
  retries_ = 0;
  cw_ = params_.cw_min;
  backoff_slots_ = 0;
  difs_done_ = false;
  // A frame already on the air completes through the tx_ack path of
  // on_transmit_complete, which touches no queue state; everything else
  // returns straight to idle.
  state_ = radio_.transmitting() ? State::tx_ack : State::idle;
}

void CsmaMac::begin_access() {
  assert(!queue_.empty());
  state_ = State::contending;
  retries_ = 0;
  cw_ = params_.cw_min;
  // DCF rule: transmit after DIFS only if the medium was already idle when
  // the frame arrived; otherwise draw a random backoff. Without this,
  // every node that heard the same broadcast would retransmit in the same
  // slot and collide (the classic synchronized-forwarders storm).
  if (radio_.medium_busy() || radio_.idle_for() < params_.difs) {
    draw_backoff();
  } else {
    backoff_slots_ = 0;
    difs_done_ = false;
  }
  resume_contention();
}

void CsmaMac::resume_contention() {
  if (radio_.medium_busy()) return;  // on_medium_idle will call us again
  // Credit idle time already elapsed toward the DIFS wait.
  const sim::Duration already_idle = radio_.idle_for();
  const bool difs_served = already_idle >= params_.difs;
  if (batched_) {
    // Analytic countdown: the DIFS remainder and every pending backoff
    // slot fuse into one deadline. A busy transition before it fires
    // pauses by crediting whole elapsed slots (pause_contention); the
    // deadline firing means the medium stayed idle throughout, so the
    // whole countdown completed.
    difs_done_ = difs_served;
    if (difs_served && backoff_slots_ == 0) {
      start_transmission();
      return;
    }
    const sim::Duration difs_remaining =
        difs_served ? sim::Duration::zero() : params_.difs - already_idle;
    countdown_anchor_ = sim_.now() + difs_remaining;
    fused_difs_remaining_ =
        backoff_slots_ > 0 ? difs_remaining : sim::Duration::zero();
    access_timer_.restart(difs_remaining + params_.slot * backoff_slots_,
                          backoff_slots_ > 0 ? sim::EventCategory::mac_slot
                                             : sim::EventCategory::mac_difs);
    return;
  }
  if (difs_served) {
    difs_done_ = true;
    if (backoff_slots_ == 0) {
      start_transmission();
    } else {
      access_timer_.restart(params_.slot, sim::EventCategory::mac_slot);
    }
  } else {
    difs_done_ = false;
    access_timer_.restart(params_.difs - already_idle, sim::EventCategory::mac_difs);
  }
}

void CsmaMac::pause_contention() {
  if (batched_ && access_timer_.pending() && backoff_slots_ > 0) {
    // Credit every whole slot completed since DIFS deference finished and
    // forfeit the partial slot in progress — exactly the decrements the
    // per-slot tick chain would have applied by now. (A tick firing in
    // the same microsecond as the busy transition fires first — it was
    // scheduled at least a slot earlier, FIFO order — so an exact slot
    // boundary counts as completed; integer floor gives the same answer.)
    const sim::Duration since_anchor = sim_.now() - countdown_anchor_;
    if (!fused_difs_remaining_.is_zero() &&
        (since_anchor > sim::Duration::zero() ||
         (since_anchor == sim::Duration::zero() &&
          fused_difs_remaining_ > max_propagation_))) {
      // The countdown made it past the anchor, so the reference engine's
      // separate difs event fired there: strictly past is unambiguous,
      // and at the exact anchor the difs event was scheduled a full DIFS
      // remainder earlier while the pausing arrival was scheduled at
      // most one propagation delay earlier — FIFO order lets the difs
      // event win whenever the remainder exceeds that bound. Shorter
      // remainders could tie with the arrival's schedule instant, so
      // those coincidences are not counted.
      ++counters_.difs_events_elided;
    }
    if (since_anchor > sim::Duration::zero()) {
      const std::int64_t whole = since_anchor.count_us() / params_.slot.count_us();
      const auto credit = static_cast<std::uint32_t>(
          std::min<std::int64_t>(whole, backoff_slots_));
      backoff_slots_ -= credit;
      counters_.backoff_slots_credited += credit;
    }
  }
  access_timer_.cancel();
  difs_done_ = false;
}

void CsmaMac::on_difs_elapsed() {
  difs_done_ = true;
  if (backoff_slots_ == 0) {
    start_transmission();
  } else {
    access_timer_.restart(params_.slot, sim::EventCategory::mac_slot);
  }
}

void CsmaMac::on_slot_elapsed() {
  assert(backoff_slots_ > 0);
  --backoff_slots_;
  ++counters_.backoff_slots_credited;
  if (backoff_slots_ == 0) {
    start_transmission();
  } else {
    access_timer_.restart(params_.slot, sim::EventCategory::mac_slot);
  }
}

void CsmaMac::on_countdown_elapsed() {
  // The fused deadline survived to its expiry: no busy transition paused
  // us (a pause cancels the timer), so DIFS and every slot completed.
  assert(state_ == State::contending);
  difs_done_ = true;
  if (!fused_difs_remaining_.is_zero()) ++counters_.difs_events_elided;
  counters_.backoff_slots_credited += backoff_slots_;
  backoff_slots_ = 0;
  start_transmission();
}

void CsmaMac::start_transmission() {
  assert(state_ == State::contending);
  assert(!radio_.transmitting());
  const Outgoing& out = queue_.front();
  const Frame frame{FrameKind::data, self_, out.dst, next_mac_seq_, out.packet};
  state_ = State::tx_data;
  if (out.dst.is_broadcast()) {
    ++counters_.broadcast_sent;
  } else {
    ++counters_.unicast_sent;
    if (retries_ > 0) ++counters_.retries;
  }
  if (sniffer_ != nullptr) sniffer_->on_frame_transmitted(frame);
  radio_.transmit(frame);
}

void CsmaMac::on_transmit_complete() {
  if (state_ == State::tx_ack) {
    // ACK finished; resume whatever we were doing. on_medium_idle triggers
    // resume_contention when the air clears.
    state_ = queue_.empty() ? State::idle : State::contending;
    if (state_ == State::contending) resume_contention();
    return;
  }
  if (state_ != State::tx_data) return;
  const Outgoing& out = queue_.front();
  if (out.dst.is_broadcast()) {
    transmission_succeeded();
    return;
  }
  // Unicast: wait for the ACK. Timeout covers SIFS + ACK airtime + slack.
  state_ = State::awaiting_ack;
  const Frame ack{FrameKind::ack, out.dst, self_, 0, {}};
  const sim::Duration timeout =
      params_.sifs + channel_.airtime_of(ack) + params_.slot * 3;
  ack_timer_.restart(timeout);
}

void CsmaMac::on_ack_timeout() {
  assert(state_ == State::awaiting_ack);
  ++retries_;
  if (retries_ > params_.retry_limit) {
    ++counters_.unicast_failed;
    give_up_current();
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, params_.cw_max);
  draw_backoff();
  state_ = State::contending;
  resume_contention();
}

void CsmaMac::transmission_succeeded() {
  ++next_mac_seq_;
  finish_current_and_continue();
}

void CsmaMac::give_up_current() {
  Outgoing out = std::move(queue_.front());
  ++next_mac_seq_;
  queue_.pop_front();
  state_ = queue_.empty() ? State::idle : State::contending;
  if (listener_ != nullptr) listener_->on_unicast_failed(*out.packet, out.dst);
  if (state_ == State::contending) {
    retries_ = 0;
    cw_ = params_.cw_min;
    draw_backoff();
    resume_contention();
  }
}

void CsmaMac::finish_current_and_continue() {
  queue_.pop_front();
  if (queue_.empty()) {
    state_ = State::idle;
    return;
  }
  state_ = State::contending;
  retries_ = 0;
  cw_ = params_.cw_min;
  // Post-transmission backoff decorrelates back-to-back senders.
  draw_backoff();
  resume_contention();
}

void CsmaMac::draw_backoff() {
  backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_int(0, cw_));
  difs_done_ = false;
}

void CsmaMac::on_medium_busy() {
  if (state_ == State::contending) pause_contention();
}

void CsmaMac::on_medium_idle() {
  if (state_ == State::contending) resume_contention();
}

void CsmaMac::on_frame_received(const Frame& frame) {
  if (frame.kind == FrameKind::ack) {
    if (state_ == State::awaiting_ack && frame.mac_dst == self_ &&
        frame.mac_src == queue_.front().dst && frame.mac_seq == next_mac_seq_) {
      ack_timer_.cancel();
      transmission_succeeded();
    }
    return;
  }
  // Data frame. The sniffer tap fires before the destination filter and
  // rx dedup: promiscuous observation sees every decodable transmission,
  // exactly what a watchdog-style trust monitor needs.
  if (sniffer_ != nullptr) sniffer_->on_frame_overheard(frame);
  if (frame.mac_dst == self_) {
    send_ack(frame.mac_src, frame.mac_seq);
    auto [seq, fresh] = last_rx_seq_.try_emplace(frame.mac_src, frame.mac_seq);
    if (!fresh) {
      if (*seq == frame.mac_seq) {
        ++counters_.dup_frames_dropped;  // retransmission we already accepted
        return;
      }
      *seq = frame.mac_seq;
    }
  } else if (!frame.mac_dst.is_broadcast()) {
    return;  // unicast for somebody else
  }
  ++counters_.delivered_up;
  if (listener_ != nullptr) listener_->on_packet_received(*frame.packet, frame.mac_src);
}

void CsmaMac::send_ack(net::NodeId to, std::uint16_t seq) {
  sim_.schedule_after(
      params_.sifs,
      [this, to, seq] {
        if (radio_.transmitting()) {
          // Rare overlap: our own frame went on the air before the SIFS
          // expired. The ACK is silently lost and the sender will retry —
          // counted so the loss is visible instead of indistinguishable
          // from an ACK collision.
          ++counters_.acks_suppressed;
          return;
        }
        // While awaiting an ACK ourselves, transmit without disturbing that
        // state machine (on_transmit_complete ignores the completion).
        if (state_ == State::contending) {
          pause_contention();
          state_ = State::tx_ack;
        } else if (state_ == State::idle) {
          state_ = State::tx_ack;
        }
        ++counters_.acks_sent;
        radio_.transmit(Frame{FrameKind::ack, self_, to, seq, {}});
      },
      // Accounted under `other` since PR 5 introduced the event mix;
      // kept there explicitly so the mix stays comparable across PRs.
      sim::EventCategory::other);
}

}  // namespace ag::mac
