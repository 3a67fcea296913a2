// Custody-tier figure: "users served" under duty-cycled user sessions,
// swept over custody budget x duty cycle x churn. Every member node
// multiplexes 200 logical users (SessionManager), each subscribing at a
// staggered start and sleeping per its duty cycle; a delivery only
// counts for a user that is awake (or wakes within the wake TTL). The
// custody tier re-offers undeliverable payloads on contact, after
// reboots, and across the partition heal via gateway nodes, so the
// budget axis shows how much store-and-forward buys back from users the
// plain protocols miss. budget=0 is the custody-off baseline in-figure.
//
// Runs every registered protocol by default (custody is a decorator, so
// all five substrates get the tier for free) in the paper's 40-node
// area. Every (duty, churn, budget) cell runs on one thread pool, and
// BENCH_dtn.json records the host seconds each cell's runs took, so it
// doubles as a perf record for the custody tier.
//
// Usage: figure_dtn [--smoke] [--protocols=name,name]
//   --smoke shrinks the grid for CI (short duration, 2x1x2 grid).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Custody-tier figure: users served under duty-cycled sessions, swept\n"
      "over custody budget x duty cycle x churn (all registered protocols).",
      "  custody_max_msgs = {0,16,64,256} x session duty x churn_per_min",
      "  --smoke           2x1x2 grid, short duration (CI)\n");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::uint32_t seeds = harness::seeds_from_env(smoke ? 1 : 2);
  const std::vector<harness::Protocol> protocols = bench::protocols_from_cli(
      argc, argv, harness::ProtocolRegistry::instance().all());
  constexpr std::uint32_t kSessionsPerNode = 200;

  // Fault background shared by every cell (the figure_churn recipe):
  // 15 % of nodes crash with state wipe and a mid-run partition cuts the
  // area in half — exactly the regimes custody is supposed to bridge.
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
  // User sessions: 200 logical users per member node, 60 s activity
  // period, subscriptions staggered across the first half of the run.
  base.sessions.per_node = kSessionsPerNode;
  base.sessions.period_s = 60.0;
  base.sessions.wake_ttl_s = 30.0;
  base.sessions.subscribe_spread_s = smoke ? 40.0 : 200.0;
  // Custody shape (the budget axis only sweeps max_messages): two
  // gateway nodes bridge the partition cut with 4x the per-node budget.
  base.custody.gateway_count = 2;

  const std::vector<double> duties =
      smoke ? std::vector<double>{1.0, 0.25} : std::vector<double>{1.0, 0.5, 0.25};
  const std::vector<double> churns =
      smoke ? std::vector<double>{4} : std::vector<double>{0, 4};
  const std::vector<double> budgets =
      smoke ? std::vector<double>{0, 64} : std::vector<double>{0, 16, 64, 256};

  std::printf("== Custody tier x user sessions (%u users/node) ==\n", kSessionsPerNode);

  // A zero budget is the custody-off baseline.
  bench::Grid grid{"dtn", "custody_max_msgs",
                   [](harness::ScenarioConfig& c, double x) {
                     c.custody.enabled = x > 0.0;
                     c.custody.max_messages = static_cast<std::uint32_t>(x);
                   },
                   seeds, protocols};
  for (const double duty : duties) {
    for (const double churn : churns) {
      for (const double budget : budgets) {
        harness::ScenarioConfig cell_base = base;
        cell_base.sessions.duty = duty;
        cell_base.faults.spec.churn_per_min = churn;
        char label[96];
        std::snprintf(label, sizeof label, "duty=%.2f churn=%g budget=%g",
                      duty, churn, budget);
        std::ostringstream fields;
        fields << ", \"duty\": " << duty << ", \"churn_per_min\": " << churn
               << ", \"custody_max_msgs\": " << budget;
        grid.add(label, fields.str(), cell_base, budget);
      }
    }
  }
  grid.run();
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    std::printf("-- %s --\n", grid.cells[i].label.c_str());
    for (const harness::FigureSeries& s : grid.result.series) {
      const harness::SeriesPoint& p = s.points[i];
      std::printf("  %-16s delivery=%.2f users=%llu/%llu (%.2f) "
                  "custody stored=%llu offered=%llu accepted=%llu\n",
                  s.name.c_str(), p.mean_delivery_ratio,
                  static_cast<unsigned long long>(p.mean_users_served),
                  static_cast<unsigned long long>(p.mean_user_eligible),
                  p.mean_users_ratio,
                  static_cast<unsigned long long>(p.mean_custody_stored),
                  static_cast<unsigned long long>(p.mean_custody_offers),
                  static_cast<unsigned long long>(p.mean_custody_accepted));
    }
  }

  const std::string header =
      "  \"sessions_per_node\": " + std::to_string(kSessionsPerNode) + ",\n";
  if (!grid.write_json("BENCH_dtn.json", header)) {
    std::fprintf(stderr, "error: failed to write BENCH_dtn.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_dtn.json; %u seeds; "
              "scripts/scale_summary.py renders it too)\n", seeds);
  return 0;
}
