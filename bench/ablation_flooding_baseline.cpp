// Ablation: MAODV vs MAODV+AG vs blind flooding (the related-work
// comparison of paper section 6 — flooding is reliable but "extremely
// expensive since it generates a large number of messages"). Reports
// delivery plus the cost metric flooding loses on: transmissions per
// delivered packet.
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 6): MAODV vs MAODV+AG vs blind flooding at 55 m,\n"
      "0.2 m/s, with transmissions per delivered packet.",
      "  range_m = {55} (one point; the protocols are the comparison)");
  const harness::ExperimentResult result =
      harness::Experiment::sweep("range(m)", {55.0},
                                 [](harness::ScenarioConfig& c, double x) {
                                   c.with_range(x).with_max_speed(0.2);
                                 })
          .protocols(bench::protocols_from_cli(
              argc, argv, {harness::Protocol::maodv, harness::Protocol::maodv_gossip,
                           harness::Protocol::flooding}))
          .seeds(harness::seeds_from_env(2))
          .parallel()
          .name("ablation_flooding_baseline")
          .run();
  const int status = bench::finish_figure(
      result, "Ablation: protocol cost comparison (range 55 m, 0.2 m/s)", "range(m)");

  std::printf("%-14s | %s\n", "protocol", "tx per delivered pkt");
  for (const harness::FigureSeries& series : result.series) {
    const harness::SeriesPoint& pt = series.points.front();
    double delivered_total = 0.0;
    for (const stats::RunResult& run : pt.runs) {
      for (const stats::MemberResult& m : run.members) {
        delivered_total += static_cast<double>(m.received);
      }
    }
    delivered_total /= static_cast<double>(pt.runs.size());
    const double cost = delivered_total > 0
                            ? static_cast<double>(pt.mean_transmissions) / delivered_total
                            : 0.0;
    std::printf("%-14s | %.2f\n", series.name.c_str(), cost);
  }
  std::printf("\n");
  return status;
}
