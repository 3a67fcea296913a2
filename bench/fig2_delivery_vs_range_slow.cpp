// Figure 2: packet delivery vs transmission range (45–85 m), 40 nodes,
// max speed 0.2 m/s. Expected shape: both protocols improve with range;
// Gossip dominates MAODV with far tighter min–max spread.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 2: delivery ratio vs transmission range at 0.2 m/s max speed.",
      "  range_m = {45..85} (transmission range, meters)");
  return bench::run_figure(
      argc, argv, "Figure 2: Packet Delivery vs Transmission Range (speed 0.2 m/s)",
      "range(m)", "fig2", {45, 50, 55, 60, 65, 70, 75, 80, 85},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(x).with_max_speed(0.2);
      },
      /*default_seeds=*/3);
}
