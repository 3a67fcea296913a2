#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "harness/protocol_registry.h"

namespace perfbench {

namespace {

using ag::harness::Protocol;
using ag::harness::ScenarioConfig;

// Appends protocol x value x replicate cells in the figure benches' order.
void add_sweep(Workload& w, std::uint64_t seed, const ScenarioConfig& base,
               const std::vector<Protocol>& protocols, const char* param,
               const std::vector<double>& values, std::uint32_t reps,
               const std::function<void(ScenarioConfig&, double)>& apply) {
  const auto& registry = ag::harness::ProtocolRegistry::instance();
  const std::uint64_t cells = protocols.size() * values.size() * reps;
  for (const Protocol p : protocols) {
    for (const double x : values) {
      for (std::uint32_t r = 0; r < reps; ++r) {
        Cell cell;
        cell.id = w.cells.size();
        cell.config = base;
        apply(cell.config, x);
        cell.config.with_protocol(p).with_seed(seed * cells + cell.id + 1);
        char label[128];
        std::snprintf(label, sizeof label, "%s %s=%g rep=%u",
                      registry.name_of(p).c_str(), param, x, r);
        cell.label = label;
        w.cells.push_back(std::move(cell));
      }
    }
  }
}

// Paper Figure 2: 40 nodes, 600 s, 0.2 m/s, range 45-85 m, MAODV with and
// without Anonymous Gossip.
Workload paper_fig2(std::uint64_t seed) {
  Workload w;
  w.name = "paper_fig2";
  w.why = "the paper's Figure 2 sweep, 54 cells of 40 nodes: sim core, phy, MAC and "
          "timers take ~80% of traced cell time, router receive ~17%, gossip ~2%, "
          "setup <0.1%; pool ~98% busy";
  add_sweep(w, seed, ScenarioConfig{}, {Protocol::maodv_gossip, Protocol::maodv},
            "range_m", {45, 50, 55, 60, 65, 70, 75, 80, 85}, 3,
            [](ScenarioConfig& c, double x) { c.with_range(x).with_max_speed(0.2); });
  return w;
}

// figure_churn's full sweep: every core protocol under 15 % crashes with
// wipe, a mid-run partition, and membership churn 0-4 per minute.
Workload churn(std::uint64_t seed) {
  Workload w;
  w.name = "churn";
  w.why = "figure_churn, 50 cells, five protocols under crashes, partition and churn: "
          "sim core, phy, MAC and timers ~77% of traced cell time, router receive and "
          "repair ~19%, gossip ~3%";
  ScenarioConfig base;
  base.with_range(65.0).with_max_speed(1.0);
  base.faults.spec.crash_fraction = 0.15;
  base.faults.spec.crash_downtime_s = 60.0;
  base.faults.spec.partition_duration_s = 60.0;
  base.faults.spec.churn_downtime_s = 30.0;
  add_sweep(w, seed, base, ag::harness::ProtocolRegistry::instance().all(),
            "churn_per_min", {0, 0.5, 1, 2, 4}, 2,
            [](ScenarioConfig& c, double x) { c.faults.spec.churn_per_min = x; });
  return w;
}

// scale_smoke's 1000-node point: constant mean degree (range 75*sqrt(40/n)
// on the paper's 200x200 m), 13 members, 1 m/s, 80 s with traffic 20-60 s.
// It is the fixed ROADMAP point (simulator seed 1) whatever the workload
// seed: one 1000-node cell's work varies by about a third and its
// delivery between 0 and 0.12 from one simulator seed to the next, a
// spread no regression bound can hold (see perfbench/README.md).
Workload scale_1000() {
  Workload w;
  w.name = "scale_1000";
  w.why = "one 1000-node cell on one thread, ~6000 events pending: sim core, phy, MAC "
          "and timers ~74% of traced cell time, router receive ~24%, gossip and setup "
          "each <1%";
  ScenarioConfig base;
  base.duration = ag::sim::SimTime::seconds(80.0);
  base.workload.start = ag::sim::SimTime::seconds(20.0);
  base.workload.end = ag::sim::SimTime::seconds(60.0);
  add_sweep(w, kScaleSimSeed - 1, base, {Protocol::maodv_gossip}, "nodes", {1000}, 1,
            [](ScenarioConfig& c, double x) {
              c.with_nodes(static_cast<std::size_t>(x))
                  .with_range(75.0 * std::sqrt(40.0 / x))
                  .with_max_speed(1.0);
              c.member_fraction = 13.0 / x;
            });
  return w;
}

}  // namespace

std::vector<std::string> workload_names() { return {"paper_fig2", "churn", "scale_1000"}; }

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (seed > kMaxSeed) {
    throw std::invalid_argument("seed " + std::to_string(seed) + " is above the maximum " +
                                std::to_string(kMaxSeed));
  }
  if (name == "paper_fig2") return paper_fig2(seed);
  if (name == "churn") return churn(seed);
  if (name == "scale_1000") return scale_1000();
  std::string known;
  for (const std::string& n : workload_names()) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown workload \"" + std::string{name} +
                              "\" (known: " + known + ")");
}

}  // namespace perfbench
