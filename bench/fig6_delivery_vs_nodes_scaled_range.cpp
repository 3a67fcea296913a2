// Figure 6: packet delivery vs number of nodes (40–100) with the
// transmission range scaled as r = 75·sqrt(40/n) so the mean neighbor
// count stays constant (the paper's "average number of neighbors ...
// approximately the same" experiment; the 40-node anchor of 75 m is our
// assumption — see ARCHITECTURE.md "Model simplifications"). Expected:
// gradual decline as routes get longer and link failures more frequent.
#include <cmath>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 6: delivery ratio vs node count at constant mean degree\n(range shrinks as nodes grow).",
      "  node_count = {40..100} (range scaled to hold mean degree)");
  return bench::run_figure(
      argc, argv, "Figure 6: Packet Delivery vs Number of Nodes (constant mean degree)",
      "#nodes", "fig6", {40, 50, 60, 70, 80, 90, 100},
      [](harness::ScenarioConfig& c, double x) {
        const double range = 75.0 * std::sqrt(40.0 / x);
        c.with_nodes(static_cast<std::size_t>(x)).with_range(range).with_max_speed(0.2);
      },
      /*default_seeds=*/2);
}
