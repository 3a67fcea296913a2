// Churn robustness: packet delivery vs membership churn rate while the
// network also suffers node crashes and one partition episode — the
// regimes where related work (Haas/Halpern/Li's gossip routing; the
// large-scale-topology gossip studies) predicts sharp reliability cliffs.
// Runs every registered protocol by default, so the paper's claim that
// Anonymous Gossip hardens *any* substrate is tested exactly where it
// matters. Delivery is accounted per live membership interval: a member
// is only charged for packets sourced while it was subscribed.
//
// Usage: figure_churn [--smoke] [--protocols=name,name]
//   --smoke shrinks the run for CI (short duration, two churn points).
#include <cstdio>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Robustness figure: delivery ratio vs membership churn rate, over a\n"
      "fault background (15% crashes, mid-run partition).",
      "  churn_per_min = {0..8} (member leave+rejoin cycles per minute)",
      "  --smoke           shrink the sweep for CI (short duration)\n");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::uint32_t seeds = harness::seeds_from_env(smoke ? 1 : 2);

  // The fault background every churn point shares: 15 % of nodes crash
  // (wipe policy) and a mid-run partition cuts the area in half.
  harness::ScenarioConfig base;
  base.with_range(65.0).with_max_speed(1.0);
  base.faults.spec.crash_fraction = 0.15;
  base.faults.spec.crash_downtime_s = smoke ? 20.0 : 60.0;
  base.faults.spec.partition_duration_s = smoke ? 20.0 : 60.0;
  base.faults.spec.churn_downtime_s = smoke ? 15.0 : 30.0;
  if (smoke) {
    base.duration = sim::SimTime::seconds(120.0);
    base.workload.start = sim::SimTime::seconds(20.0);
    base.workload.end = sim::SimTime::seconds(100.0);
  }

  const std::vector<double> churn =
      smoke ? std::vector<double>{0, 4} : std::vector<double>{0, 0.5, 1, 2, 4};
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, harness::ProtocolRegistry::instance().all());

  harness::ExperimentBuilder builder =
      harness::Experiment::sweep("churn_per_min", churn,
                                 [](harness::ScenarioConfig& c, double x) {
                                   c.faults.spec.churn_per_min = x;
                                 })
          .base(base)
          .protocols(protocols)
          .seeds(seeds)
          .parallel()
          .name("churn")
          .on_progress([](std::size_t done, std::size_t total) {
            std::printf("  [churn %zu/%zu runs]\n", done, total);
            std::fflush(stdout);
          });
  return bench::finish_figure(builder.run(), "Delivery under churn + crashes + partition",
                              "churn/min");
}
