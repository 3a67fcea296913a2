// Extension bench (paper section 5.5: "Implementing anonymous gossip with
// other multicast protocols, such as ODMRP ... could also be done in a
// similar manner"): Anonymous Gossip layered over the ODMRP mesh vs over
// the MAODV tree, against both bare protocols.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Extension (section 5.5): Anonymous Gossip over ODMRP vs over MAODV,\n"
      "against both bare protocols, at 55 m, 1 m/s.",
      "  range_m = {55} (one point; the protocols are the comparison)");
  return bench::run_figure(
      argc, argv, "Extension: Anonymous Gossip over ODMRP (section 5.5)", "range(m)",
      "ablation_odmrp", {55.0},
      [](harness::ScenarioConfig& c, double x) {
        c.with_range(x).with_max_speed(1.0);  // mobile enough to break paths
      },
      /*default_seeds=*/2,
      {harness::Protocol::maodv, harness::Protocol::maodv_gossip, harness::Protocol::odmrp,
       harness::Protocol::odmrp_gossip});
}
