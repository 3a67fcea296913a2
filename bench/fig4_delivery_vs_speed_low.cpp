// Figure 4: packet delivery vs maximum speed (0.1–1.0 m/s), range 75 m,
// 40 nodes. Expected: Gossip near-perfect (~100 % below 0.3 m/s per the
// paper), MAODV lower with wide error bars.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 4: delivery ratio vs maximum node speed (0.1-1 m/s).",
      "  max_speed_mps = {0.1..1.0}");
  return bench::run_figure(
      argc, argv, "Figure 4: Packet Delivery vs Maximum Speed (low range: 0.1-1 m/s)",
      "speed(m/s)", "fig4", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(75.0).with_max_speed(x);
      },
      /*default_seeds=*/3);
}
