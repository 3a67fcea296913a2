// The benchmark's metrics: one declared catalogue (name, unit, direction,
// scope), the computation of every metric from a run's batches, and the
// output — a table naming each metric with its unit and direction, the
// interaction map, and the final one-line JSON result.
#ifndef AG_PERFBENCH_REPORT_H
#define AG_PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "runner.h"

namespace perfbench {

enum class Scope : std::uint8_t { end_to_end, per_layer };

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Scope scope;
  // End-to-end only: the share of the parent's median by which the metric
  // may worsen before a change counts as a regression.
  double bound;
};

// Every metric the benchmark can print, in output order.
[[nodiscard]] const std::vector<MetricDef>& catalogue();

// A metric name: 1-64 characters of [A-Za-z0-9_.-], starting with a
// letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  const MetricDef* def;
  double value;
};

// Values for one scope. set() rejects names outside the catalogue or the
// scope and repeated names; finish() rejects a scope left incomplete and
// returns the metrics in catalogue order.
class Report {
 public:
  explicit Report(Scope scope) : scope_{scope} {}
  void set(std::string_view name, double value);
  [[nodiscard]] std::vector<Metric> finish() const;

 private:
  Scope scope_;
  std::vector<Metric> metrics_;
};

// Mean RunResult::delivery_ratio() over the batch's successful cells.
[[nodiscard]] double mean_delivery_ratio(const Batch& batch);

// End-to-end metrics of an untraced run: the rounds' batches (wall_s and
// cpu_s are their medians, runs the cells they ran per round) and the
// separately measured setup_s.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const std::vector<Batch>& rounds,
                                                     double setup_s);

// Per-layer metrics of a traced run: exact counts from the untraced
// batch, host times from the traced one.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Batch& untraced,
                                                    const Batch& traced,
                                                    std::uint64_t failed);

void print_table(std::FILE* out, const std::vector<Metric>& metrics);
void print_interaction_map(std::FILE* out);
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);
// The catalogue as BENCHMARK.json's end_to_end / per_layer lists.
[[nodiscard]] std::string catalogue_json();

}  // namespace perfbench

#endif  // AG_PERFBENCH_REPORT_H
