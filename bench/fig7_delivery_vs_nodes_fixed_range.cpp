// Figure 7: packet delivery vs number of nodes (40–100) at a fixed 55 m
// range, max speed 0.2 m/s. Expected: delivery first improves with
// density (better connectivity), then congestion takes a toll — the
// paper's rise-then-flatten shape.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 7: delivery ratio vs node count at a fixed 55 m range.",
      "  node_count = {40..100}");
  return bench::run_figure(
      argc, argv, "Figure 7: Packet Delivery vs Number of Nodes (fixed 55 m range)",
      "#nodes", "fig7", {40, 50, 60, 70, 80, 90, 100},
      [](harness::ScenarioConfig& c, double x) {
        c.with_nodes(static_cast<std::size_t>(x)).with_range(55.0).with_max_speed(0.2);
      },
      /*default_seeds=*/2);
}
