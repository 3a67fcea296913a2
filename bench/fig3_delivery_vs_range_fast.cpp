// Figure 3: packet delivery vs transmission range (45–85 m), 40 nodes,
// max speed 2 m/s. Same sweep as Fig. 2 at 10x the mobility: overall
// delivery drops, the Gossip-over-MAODV gap persists.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 3: delivery ratio vs transmission range at 2 m/s max speed.",
      "  range_m = {45..85} (transmission range, meters)");
  return bench::run_figure(
      argc, argv, "Figure 3: Packet Delivery vs Transmission Range (speed 2 m/s)",
      "range(m)", "fig3", {45, 50, 55, 60, 65, 70, 75, 80, 85},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(x).with_max_speed(2.0);
      },
      /*default_seeds=*/3);
}
