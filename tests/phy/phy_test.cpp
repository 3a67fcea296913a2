#include <gtest/gtest.h>

#include <vector>

#include "mobility/static_mobility.h"
#include "phy/channel.h"
#include "phy/radio.h"
#include "sim/simulator.h"

namespace ag::phy {
namespace {

// Records everything the radio reports.
class RecordingListener : public RadioListener {
 public:
  void on_frame_received(const mac::Frame& frame) override { frames.push_back(frame); }
  void on_medium_busy() override { ++busy_events; }
  void on_medium_idle() override { ++idle_events; }
  void on_transmit_complete() override { ++tx_complete; }

  std::vector<mac::Frame> frames;
  int busy_events{0};
  int idle_events{0};
  int tx_complete{0};
};

mac::Frame test_frame(std::uint32_t src, std::uint32_t dst_broadcast = 1) {
  mac::Frame f;
  f.kind = mac::FrameKind::data;
  f.mac_src = net::NodeId{src};
  f.mac_dst = dst_broadcast != 0 ? net::NodeId::broadcast() : net::NodeId{1};
  f.mac_seq = 7;
  f.packet = net::make_packet(net::NodeId{src}, net::NodeId::broadcast(), 32,
                              aodv::HelloMsg{net::NodeId{src}, net::SeqNo{1}});
  return f;
}

class PhyFixture {
 public:
  // `batched` selects the delivery engine (PhyParams::use_batched_phy).
  explicit PhyFixture(std::vector<mobility::Vec2> positions, double range = 100.0,
                      bool batched = true)
      : mobility_{std::move(positions)},
        channel_{sim_, mobility_, PhyParams{range, 2e6, 192.0, 3e8, true, batched}} {
    for (std::size_t i = 0; i < mobility_.node_count(); ++i) {
      radios_.push_back(std::make_unique<Radio>(sim_, channel_, i));
      channel_.attach(radios_.back().get());
      listeners_.push_back(std::make_unique<RecordingListener>());
      radios_.back()->set_listener(listeners_.back().get());
    }
  }
  sim::Simulator sim_;
  mobility::StaticMobility mobility_;
  Channel channel_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

TEST(Channel, DeliversWithinRangeOnly) {
  PhyFixture f{{{0, 0}, {50, 0}, {150, 0}}, 100.0};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->frames.size(), 1u);  // 50 m: in range
  EXPECT_EQ(f.listeners_[2]->frames.size(), 0u);  // 150 m: out of range
}

TEST(Channel, RangeBoundaryIsInclusive) {
  PhyFixture f{{{0, 0}, {100, 0}}, 100.0};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->frames.size(), 1u);
}

TEST(Channel, SenderDoesNotHearItself) {
  PhyFixture f{{{0, 0}, {10, 0}}};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->frames.size(), 0u);
}

TEST(Channel, AirtimeScalesWithFrameSize) {
  PhyFixture f{{{0, 0}}};
  mac::Frame small = test_frame(0);
  mac::Frame ack;
  ack.kind = mac::FrameKind::ack;
  EXPECT_GT(f.channel_.airtime_of(small).count_us(), f.channel_.airtime_of(ack).count_us());
  // 14-byte ACK at 2 Mbps = 56 us + 192 us preamble.
  EXPECT_EQ(f.channel_.airtime_of(ack).count_us(), 192 + 56);
}

TEST(Channel, DropHookSuppressesDelivery) {
  PhyFixture f{{{0, 0}, {10, 0}, {20, 0}}};
  f.channel_.set_drop_hook([](std::size_t, std::size_t to) { return to == 1; });
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->frames.size(), 0u);
  EXPECT_EQ(f.listeners_[2]->frames.size(), 1u);
}

TEST(Radio, OverlappingReceptionsCollide) {
  // 1 and 2 are both in range of 0 but out of range of each other
  // (hidden terminals): simultaneous transmissions collide at 0.
  PhyFixture f{{{0, 0}, {80, 0}, {-80, 0}}, 100.0};
  f.radios_[1]->transmit(test_frame(1));
  f.radios_[2]->transmit(test_frame(2));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->frames.size(), 0u);
  EXPECT_GE(f.radios_[0]->counters().frames_corrupted, 1u);
}

TEST(Radio, StaggeredTransmissionsAlsoCollideWhileOverlapping) {
  PhyFixture f{{{0, 0}, {80, 0}, {-80, 0}}, 100.0};
  f.radios_[1]->transmit(test_frame(1));
  // Second transmission starts mid-air of the first.
  f.sim_.schedule_after(sim::Duration::us(100), [&] { f.radios_[2]->transmit(test_frame(2)); });
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->frames.size(), 0u);
}

TEST(Radio, SequentialTransmissionsBothDeliver) {
  PhyFixture f{{{0, 0}, {80, 0}, {-80, 0}}, 100.0};
  f.radios_[1]->transmit(test_frame(1));
  f.sim_.schedule_after(sim::Duration::ms(5), [&] { f.radios_[2]->transmit(test_frame(2)); });
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->frames.size(), 2u);
}

TEST(Radio, DeafWhileTransmitting) {
  PhyFixture f{{{0, 0}, {50, 0}}, 100.0};
  f.radios_[0]->transmit(test_frame(0));
  f.radios_[1]->transmit(test_frame(1));  // starts while 0 still transmitting
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->frames.size(), 0u);
  EXPECT_GE(f.radios_[0]->counters().frames_missed_while_tx, 1u);
}

TEST(Radio, MediumBusyDuringForeignTransmission) {
  PhyFixture f{{{0, 0}, {50, 0}}, 100.0};
  EXPECT_FALSE(f.radios_[1]->medium_busy());
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.schedule_after(sim::Duration::us(300), [&] {
    EXPECT_TRUE(f.radios_[1]->medium_busy());
    EXPECT_EQ(f.radios_[1]->idle_for(), sim::Duration::zero());
  });
  f.sim_.run_all();
  EXPECT_FALSE(f.radios_[1]->medium_busy());
  EXPECT_GE(f.listeners_[1]->busy_events, 1);
  EXPECT_GE(f.listeners_[1]->idle_events, 1);
}

TEST(Radio, TransmitCompleteFires) {
  PhyFixture f{{{0, 0}}};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[0]->tx_complete, 1);
  EXPECT_FALSE(f.radios_[0]->transmitting());
}

TEST(Radio, IdleForTracksQuietTime) {
  PhyFixture f{{{0, 0}, {50, 0}}};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  const sim::SimTime end = f.sim_.now();
  f.sim_.schedule_at(end + sim::Duration::ms(3), [&] {
    EXPECT_GE(f.radios_[1]->idle_for().count_us(), 2'900);
  });
  f.sim_.run_all();
}

TEST(Channel, CountsDeliveriesAndInRangeSuppressionsOnly) {
  // Node 1 in range and down; node 2 in range and up; node 3 down but far
  // out of range — only in-range suppression counts, so the counters are
  // identical between the spatial index and the brute-force scan.
  PhyFixture f{{{0, 0}, {50, 0}, {90, 0}, {1000, 0}}, 100.0};
  f.channel_.set_node_down(1, true);
  f.channel_.set_node_down(3, true);
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.channel_.deliveries(), 1u);        // node 2
  EXPECT_EQ(f.channel_.suppressed_down(), 1u);   // node 1, not node 3
  EXPECT_EQ(f.channel_.suppressed_partition(), 0u);

  f.channel_.set_node_down(1, false);
  f.channel_.set_partition({0, 1, 0, 0});
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.channel_.deliveries(), 2u);            // node 2 again
  EXPECT_EQ(f.channel_.suppressed_partition(), 1u);  // node 1 across the cut
}

TEST(Channel, CountsTransmissions) {
  PhyFixture f{{{0, 0}, {50, 0}}};
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  f.radios_[1]->transmit(test_frame(1));
  f.sim_.run_all();
  EXPECT_EQ(f.channel_.transmissions(), 2u);
}

TEST(Channel, DownedNodeNeitherSendsNorReceives) {
  PhyFixture f{{{0, 0}, {50, 0}, {90, 0}}};
  f.channel_.set_node_down(1, true);

  // A downed sender radiates nothing (and the attempt is not counted).
  f.radios_[1]->transmit(test_frame(1));
  f.sim_.run_all();
  EXPECT_EQ(f.channel_.transmissions(), 0u);
  EXPECT_TRUE(f.listeners_[0]->frames.empty());

  // A downed receiver hears nothing; everyone else still does.
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_TRUE(f.listeners_[1]->frames.empty());
  EXPECT_EQ(f.listeners_[2]->frames.size(), 1u);

  // Back up: traffic flows again.
  f.channel_.set_node_down(1, false);
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->frames.size(), 1u);
}

TEST(Channel, GoingDownDestroysReceptionInProgress) {
  PhyFixture f{{{0, 0}, {50, 0}}};
  f.radios_[0]->transmit(test_frame(0));
  // Let the first bit arrive, then crash the receiver mid-frame.
  f.sim_.run_until(f.sim_.now() + sim::Duration::us(100));
  f.channel_.set_node_down(1, true);
  f.sim_.run_all();
  EXPECT_TRUE(f.listeners_[1]->frames.empty());
  // Not a collision: nothing interfered with the frame.
  EXPECT_EQ(f.radios_[1]->counters().frames_corrupted, 0u);
}

TEST(Radio, AbortMidFrameDropsDeliveryUnderBothEngines) {
  for (const bool batched : {true, false}) {
    PhyFixture f{{{0, 0}, {50, 0}}, 100.0, batched};
    f.radios_[0]->transmit(test_frame(0));
    // First bit has arrived (prop ~1 us); kill the reception mid-frame.
    f.sim_.run_until(f.sim_.now() + sim::Duration::us(100));
    f.radios_[1]->abort_receptions();
    f.sim_.run_all();
    EXPECT_TRUE(f.listeners_[1]->frames.empty()) << "batched=" << batched;
    // Not a collision and not a half-duplex miss — nothing interfered.
    EXPECT_EQ(f.radios_[1]->counters().frames_corrupted, 0u) << "batched=" << batched;
    EXPECT_EQ(f.radios_[1]->counters().frames_missed_while_tx, 0u)
        << "batched=" << batched;
    // The aborted frame still occupies the air until its last bit: the
    // busy/idle envelope is unchanged, the medium ends idle.
    EXPECT_FALSE(f.radios_[1]->medium_busy()) << "batched=" << batched;
    EXPECT_EQ(f.listeners_[1]->busy_events, 1) << "batched=" << batched;
    EXPECT_EQ(f.listeners_[1]->idle_events, 1) << "batched=" << batched;
  }
}

TEST(Radio, TxStartMidReceptionCorruptsItUnderBothEngines) {
  for (const bool batched : {true, false}) {
    PhyFixture f{{{0, 0}, {50, 0}}, 100.0, batched};
    f.radios_[0]->transmit(test_frame(0));
    // Let the frame's first bit land at node 1, then start transmitting
    // there: half duplex destroys the reception in progress.
    f.sim_.run_until(f.sim_.now() + sim::Duration::us(100));
    ASSERT_TRUE(f.radios_[1]->medium_busy()) << "batched=" << batched;
    f.radios_[1]->transmit(test_frame(1));
    f.sim_.run_all();
    EXPECT_TRUE(f.listeners_[1]->frames.empty()) << "batched=" << batched;
    EXPECT_EQ(f.radios_[1]->counters().frames_missed_while_tx, 1u)
        << "batched=" << batched;
    EXPECT_EQ(f.radios_[1]->counters().frames_corrupted, 0u) << "batched=" << batched;
    EXPECT_EQ(f.listeners_[1]->tx_complete, 1) << "batched=" << batched;
    // Node 0 is itself still transmitting when node 1's frame arrives,
    // so it misses it too — counters must agree across engines.
    EXPECT_TRUE(f.listeners_[0]->frames.empty()) << "batched=" << batched;
    EXPECT_EQ(f.radios_[0]->counters().frames_missed_while_tx, 1u)
        << "batched=" << batched;
  }
}

TEST(Radio, EqualEndCollisionFiresSingleIdleTransitionUnderBothEngines) {
  // Hidden terminals transmitting the same-size frame at the same time:
  // both receptions at node 0 end in the same microsecond. The reference
  // runs two finish events in FIFO order and only the last flips the
  // medium idle; the batched engine must reproduce exactly one
  // busy->idle transition — and must NOT analytically elide the second
  // reception (its end only *equals* the cover, and eliding it would
  // move on_medium_idle to the first finish). Regression for the strict
  // `<` in the elision rule.
  for (const bool batched : {true, false}) {
    PhyFixture f{{{0, 0}, {80, 0}, {-80, 0}}, 100.0, batched};
    f.radios_[1]->transmit(test_frame(1));
    f.radios_[2]->transmit(test_frame(2));
    f.sim_.run_all();
    EXPECT_TRUE(f.listeners_[0]->frames.empty()) << "batched=" << batched;
    EXPECT_EQ(f.radios_[0]->counters().frames_corrupted, 2u) << "batched=" << batched;
    EXPECT_EQ(f.listeners_[0]->busy_events, 1) << "batched=" << batched;
    EXPECT_EQ(f.listeners_[0]->idle_events, 1) << "batched=" << batched;
    EXPECT_EQ(f.channel_.rx_elided(), 0u) << "batched=" << batched;
  }
}

TEST(Channel, PartitionBlocksOnlyCrossSideFrames) {
  PhyFixture f{{{0, 0}, {50, 0}, {90, 0}}};
  // Nodes 0 and 1 on one side, node 2 on the other.
  f.channel_.set_partition({0, 0, 1});
  ASSERT_TRUE(f.channel_.partition_active());

  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[1]->frames.size(), 1u);  // same side
  EXPECT_TRUE(f.listeners_[2]->frames.empty());   // across the cut

  f.channel_.clear_partition();
  f.radios_[0]->transmit(test_frame(0));
  f.sim_.run_all();
  EXPECT_EQ(f.listeners_[2]->frames.size(), 1u);  // healed
}

}  // namespace
}  // namespace ag::phy
