#include "harness/experiment.h"

#include <ostream>
#include <utility>

#include "sim/env.h"

namespace ag::harness {

SeriesPoint aggregate_point(double x, std::vector<stats::RunResult> runs) {
  SeriesPoint point;
  point.x = x;
  std::vector<double> all_received;
  struct {  // one accumulator per AG_POINT_METRICS row
#define AG_ACCUMULATOR(member, key, agg, init, gate, sinks, expr) metric::agg member;
    AG_POINT_METRICS(AG_ACCUMULATOR)
#undef AG_ACCUMULATOR
  } acc;
  for (stats::RunResult& run : runs) {
    const stats::RunResult& r = run;
    for (double v : r.received_per_member()) all_received.push_back(v);
    point.dtn_active = point.dtn_active || r.totals.dtn_active;
    point.adversary_active = point.adversary_active || r.totals.adversary_active;
#define AG_ACCUMULATE(member, key, agg, init, gate, sinks, expr) acc.member.add(expr);
    AG_POINT_METRICS(AG_ACCUMULATE)
#undef AG_ACCUMULATE
    point.runs.push_back(std::move(run));
  }
  point.received = stats::summarize(all_received);
  const std::size_t seeds = point.runs.size();
  if (seeds > 0) {
#define AG_MEAN(member, key, agg, init, gate, sinks, expr) \
  point.member = acc.member.mean(seeds);
    AG_POINT_METRICS(AG_MEAN)
#undef AG_MEAN
  }
  return point;
}

void write_point_fields(std::ostream& out, const SeriesPoint& p, Sink sink) {
  out << ", \"received_mean\": " << p.received.mean;
  if (sink == Sink::figure) {
    out << ", \"received_min\": " << p.received.min
        << ", \"received_max\": " << p.received.max
        << ", \"received_stddev\": " << p.received.stddev
        << ", \"receivers\": " << p.received.n;
  }
  const auto emits = [&](unsigned sinks, Gate gate) {
    if ((sinks & static_cast<unsigned>(sink)) == 0) return false;
    if (sink != Sink::figure) return true;
    return gate == Gate::always || (gate == Gate::dtn && p.dtn_active) ||
           (gate == Gate::adversary && p.adversary_active);
  };
#define AG_WRITE_FIELD(member, key, agg, init, gate, sinks, expr) \
  if (emits(static_cast<unsigned>(sinks), Gate::gate)) out << ", \"" key "\": " << p.member;
  AG_POINT_METRICS(AG_WRITE_FIELD)
#undef AG_WRITE_FIELD
}

std::uint32_t seeds_from_env(std::uint32_t fallback) {
  // All AG_* knob reads live in sim/env.h (ag-lint rule `env`).
  return sim::env_positive_u32("AG_SEEDS", fallback, 1'000'000);
}

}  // namespace ag::harness
