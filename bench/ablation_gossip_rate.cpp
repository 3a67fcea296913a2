// Ablation: gossip rate (paper section 5.5 — "the gossip rate should be
// tuned so that the network does not get congested and the goodput is
// nearly 100 percent"). Sweeps the round interval from 4 s to 250 ms.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 5.5): gossip round interval vs delivery and goodput\n"
      "at 55 m, 0.2 m/s.",
      "  gossip_interval_ms = {4000, 2000, 1000, 500, 250}");
  return bench::run_figure(
      argc, argv, "Ablation: gossip round interval", "gossip_interval_ms", "ablation_gossip_rate",
      {4000, 2000, 1000, 500, 250},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(55.0).with_max_speed(0.2);
        c.gossip.round_interval = sim::Duration::ms(static_cast<std::int64_t>(x));
      },
      /*default_seeds=*/2, {harness::Protocol::maodv_gossip});
}
