// Ablation: anonymous vs cached gossip mix (paper section 4.3). p_anon=1
// is pure tree random walks; p_anon=0 relies entirely on the member cache
// (which itself is fed by walks' replies, join RREPs and data).
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.3): anonymous vs cached gossip mix at 55 m, 0.2 m/s.",
      "  p_anon = {0..1} (probability a round is an anonymous walk)");
  return bench::run_figure(
      argc, argv, "Ablation: p_anon (anonymous vs cached gossip mix)", "p_anon",
      "ablation_cached_gossip", {0.0, 0.25, 0.5, 0.75, 1.0},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(55.0).with_max_speed(0.2);  // lossy enough to need recovery
        c.gossip.p_anon = x;
      },
      /*default_seeds=*/2, {harness::Protocol::maodv_gossip});
}
