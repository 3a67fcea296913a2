// Half-duplex radio: tracks its own transmission, every reception in
// progress, and carrier state. Two receptions overlapping in time corrupt
// each other (unit-disk interference, no capture); a node transmitting is
// deaf to incoming frames.
//
// This file is the per-receiver REFERENCE engine (one finish_reception
// event per reception) and the facade over the batched engine: when the
// channel runs phy::BatchedPhy (PhyParams::use_batched_phy, the
// default), radio state lives in the engine's flat per-node arrays and
// every method forwards — same listener callbacks in the same order,
// same counters, fewer events. See phy/batched_phy.h.
#ifndef AG_PHY_RADIO_H
#define AG_PHY_RADIO_H

#include <cstdint>
#include <memory>
#include <vector>

#include "mac/frame.h"
#include "sim/simulator.h"

namespace ag::phy {

class BatchedPhy;
class Channel;

// Implemented by the MAC layer.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  virtual void on_frame_received(const mac::Frame& frame) = 0;
  virtual void on_medium_busy() = 0;
  virtual void on_medium_idle() = 0;
  virtual void on_transmit_complete() = 0;
};

class Radio {
 public:
  Radio(sim::Simulator& sim, Channel& channel, std::size_t node_index);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void set_listener(RadioListener* listener);
  [[nodiscard]] std::size_t node_index() const { return node_index_; }

  [[nodiscard]] bool transmitting() const;
  // True while transmitting or while any energy (even a corrupted frame)
  // is on the air at this node — physical carrier sense.
  [[nodiscard]] bool medium_busy() const;
  // How long the medium has been continuously idle (zero when busy).
  [[nodiscard]] sim::Duration idle_for() const;

  // Starts transmitting; any reception in progress is destroyed (half
  // duplex). Precondition: not already transmitting.
  void transmit(const mac::Frame& frame);

  // Channel-driven: a frame's first bit arrives; last bit at `end`. The
  // frame is the channel's shared immutable copy — every receiver of one
  // transmission holds the same allocation (zero-copy delivery).
  void begin_reception(std::shared_ptr<const mac::Frame> frame, sim::SimTime end);

  // Crash support: destroys every reception in progress (the radio lost
  // power mid-frame). Not counted as a collision — nothing interfered.
  void abort_receptions();

  // Counters for the stats module.
  struct Counters {
    std::uint64_t frames_sent{0};
    std::uint64_t frames_received{0};
    std::uint64_t frames_corrupted{0};  // lost to collision
    std::uint64_t frames_missed_while_tx{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  friend class BatchedPhy;  // engine mode: counters_ + listener_ access

  struct ActiveRx {
    std::shared_ptr<const mac::Frame> frame;
    sim::SimTime end;
    bool corrupt{false};
  };

  void finish_reception();
  void after_state_change(bool was_busy);

  sim::Simulator& sim_;
  Channel& channel_;
  std::size_t node_index_;
  RadioListener* listener_{nullptr};
  BatchedPhy* engine_;  // nullptr in the reference engine

  // Reference-engine state; untouched while engine_ is active.
  bool transmitting_{false};
  std::vector<ActiveRx> active_rx_;
  sim::SimTime idle_since_;  // valid when !medium_busy()
  Counters counters_;
};

}  // namespace ag::phy

#endif  // AG_PHY_RADIO_H
