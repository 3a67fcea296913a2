// Ablation: direction of information exchange (paper section 4.4 cites
// Demers et al. on why this matters). The paper's protocol is pull; this
// bench quantifies what push and push-pull would have cost: pushing
// without knowing the partner's losses ships duplicates, which shows up
// directly in the goodput column.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.4): pull vs push vs push-pull gossip at 55 m, 0.2 m/s.",
      "  exchange_mode = {0 pull, 1 push, 2 push_pull}");
  return bench::run_figure(
      argc, argv,
      "Ablation: push vs pull gossip (0=pull 1=push 2=push_pull; range 55 m, 0.2 m/s)",
      "exchange_mode", "ablation_push_pull", {0, 1, 2},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(55.0).with_max_speed(0.2);
        c.gossip.exchange_mode = static_cast<gossip::ExchangeMode>(static_cast<int>(x));
      },
      /*default_seeds=*/2, {harness::Protocol::maodv_gossip});
}
