// Figure 5: packet delivery vs maximum speed (1–10 m/s), range 75 m,
// 40 nodes. Expected: gradual decay with speed as link breakage becomes
// more frequent; Gossip stays on top (paper: 80-90 % across this band).
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 5: delivery ratio vs maximum node speed (1-10 m/s).",
      "  max_speed_mps = {1..10}");
  return bench::run_figure(
      argc, argv, "Figure 5: Packet Delivery vs Maximum Speed (high range: 1-10 m/s)",
      "speed(m/s)", "fig5", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(75.0).with_max_speed(x);
      },
      /*default_seeds=*/3);
}
