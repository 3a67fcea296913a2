// Fluent experiment API over the protocol registry: declare a parameter
// sweep once, run it for any set of protocols across seeds — serially or
// on a thread pool (each Network is self-contained, so seeds parallelize
// freely) — and emit the results as a table, CSV, or machine-readable
// JSON (the BENCH_*.json files).
//
//   auto r = Experiment::sweep("range_m", {45, 55, 65, 75, 85},
//                              [](ScenarioConfig& c, double x) { c.with_range(x); })
//                .protocols({Protocol::maodv_gossip, Protocol::maodv})
//                .seeds(10)
//                .parallel()
//                .run();
//   r.print("Figure 2", "range(m)");
//   r.write_json("BENCH_fig2.json");
#ifndef AG_HARNESS_EXPERIMENT_BUILDER_H
#define AG_HARNESS_EXPERIMENT_BUILDER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/figure.h"
#include "harness/scenario.h"

namespace ag::harness {

struct ExperimentResult {
  std::string name;       // experiment id ("fig2", "ablation_gossip_rate")
  std::string param;      // swept parameter name
  std::uint32_t seeds{0};
  std::vector<FigureSeries> series;  // one per protocol, registry names

  // Table and CSV output reuse the figure helpers (CSV lands atomically:
  // temp file + rename).
  void print(const std::string& title, const std::string& x_label) const;
  [[nodiscard]] bool write_csv(const std::string& path) const;
  // Machine-readable series: {"experiment", "param", "seeds", "series":
  // [{"name", "points": [{"x", write_point_fields(Sink::figure)}]}]}.
  // Written atomically (temp file + rename) so an interrupted bench can
  // never leave a truncated BENCH_*.json behind.
  [[nodiscard]] bool write_json(const std::string& path) const;
};

class ExperimentBuilder {
 public:
  using ApplyFn = std::function<void(ScenarioConfig&, double)>;

  // Sweeps `values` of the knob named `param` (the name only labels the
  // output): `apply(config, x)` sets it on each job's copy of the base.
  ExperimentBuilder(std::string param, std::vector<double> values, ApplyFn apply);

  ExperimentBuilder& base(ScenarioConfig config);
  ExperimentBuilder& protocols(std::vector<Protocol> protocols);
  // Seeds per point; when never set (or set to 0), run() falls back to
  // seeds_from_env().
  ExperimentBuilder& seeds(std::uint32_t n);
  // Run seeds/points/protocols on `threads` workers (0 = one per
  // hardware thread). Results are aggregated in seed order, so parallel
  // runs are bit-identical to serial ones.
  ExperimentBuilder& parallel(unsigned threads = 0);
  ExperimentBuilder& name(std::string experiment_name);
  // Progress callback, invoked (from the coordinating thread in serial
  // runs, worker threads in parallel ones) after each completed seed run.
  ExperimentBuilder& on_progress(std::function<void(std::size_t done, std::size_t total)> fn);

  // In-process run: every (protocol, x, seed) cell on the thread pool,
  // aggregated in slot order.
  [[nodiscard]] ExperimentResult run() const;

 private:
  std::string param_;
  std::vector<double> values_;
  ApplyFn apply_;
  ScenarioConfig base_{};
  std::vector<Protocol> protocols_;
  std::uint32_t seeds_{0};  // 0 = unset; resolved via seeds_from_env() in run()
  unsigned threads_{1};
  std::string name_{"experiment"};
  std::function<void(std::size_t, std::size_t)> progress_;
};

// Entry point matching the fluent style: Experiment::sweep(...).run().
class Experiment {
 public:
  [[nodiscard]] static ExperimentBuilder sweep(std::string param,
                                               std::vector<double> values,
                                               ExperimentBuilder::ApplyFn apply) {
    return ExperimentBuilder{std::move(param), std::move(values), std::move(apply)};
  }
};

}  // namespace ag::harness

#endif  // AG_HARNESS_EXPERIMENT_BUILDER_H
