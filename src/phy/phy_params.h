// Physical-layer parameters (paper section 5.1: 2 Mbps radio, unit-disk
// transmission range varied per experiment).
#ifndef AG_PHY_PHY_PARAMS_H
#define AG_PHY_PHY_PARAMS_H

namespace ag::phy {

struct PhyParams {
  double transmission_range_m{75.0};
  double bitrate_bps{2e6};
  // PLCP preamble + header at 1 Mbps, 802.11 DSSS long preamble.
  double phy_overhead_us{192.0};
  double propagation_mps{3e8};
  // Receiver lookup via the grid spatial index (see phy/spatial_index.h).
  // Off falls back to the brute-force O(n) scan — delivery decisions are
  // bit-identical either way; the flag exists so the equivalence is
  // testable forever. Only tests and micro_core's A/B benches clear it.
  bool use_spatial_index{true};
  // Batched phy delivery engine (see phy/batched_phy.h): one completion
  // event per frame plus analytic elision of doomed receptions. Off
  // falls back to the per-receiver reference engine in phy/radio.cpp —
  // runs are bit-identical either way, only event counts differ. Only
  // tests and micro_core's A/B benches clear it.
  bool use_batched_phy{true};
};

}  // namespace ag::phy

#endif  // AG_PHY_PHY_PARAMS_H
