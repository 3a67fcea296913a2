// Per-point aggregation for the experiment driver: folds one
// configuration's seeds into per-member delivery exactly the way the
// paper's figures do (average line + min/max error bars over the full
// set of receivers), plus every declared per-point metric.
#ifndef AG_HARNESS_EXPERIMENT_H
#define AG_HARNESS_EXPERIMENT_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "stats/run_result.h"
#include "stats/summary.h"

namespace ag::harness {

// The JSON outputs a per-point metric can be written to: the figure
// sink (ExperimentResult::write_json, and the fig8_goodput and
// ablation_locality grids) and the three bench-specific writers
// (scale_smoke, figure_dtn, figure_adversary).
enum class Sink : unsigned { figure = 1, scale = 2, dtn = 4, adversary = 8 };

[[nodiscard]] constexpr unsigned operator|(unsigned a, Sink b) {
  return a | static_cast<unsigned>(b);
}
[[nodiscard]] constexpr unsigned operator|(Sink a, Sink b) {
  return static_cast<unsigned>(a) | b;
}

// Which SeriesPoint flag a metric row is gated on. The figure sink only
// writes a dtn/adversary row when that flag is set, so figures without
// the subsystem (fig2, churn, ...) never carry its fields.
enum class Gate { always, dtn, adversary };

namespace metric {

// A row's seed aggregation: per-run values summed in seed order, then
// divided by the seed count in T's arithmetic, so U64Mean floors.
template <typename T>
struct Mean {
  using value_type = T;
  T sum{};
  void add(auto v) { sum += static_cast<T>(v); }
  [[nodiscard]] T mean(std::size_t seeds) const { return sum / static_cast<T>(seeds); }
};
using U64Mean = Mean<std::uint64_t>;
using F64Mean = Mean<double>;

// Pools per-run (mean, sample count) pairs over their samples instead
// of over seeds: sum(mean * count) / sum(count), 0 with no samples.
struct WeightedMean {
  using value_type = double;
  double sum{0.0};
  std::uint64_t count{0};
  void add(std::pair<double, std::uint64_t> v) {
    sum += v.first * static_cast<double>(v.second);
    count += v.second;
  }
  [[nodiscard]] double mean(std::size_t) const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

}  // namespace metric

// Every per-point metric, in JSON key order. One row is
//
//   X(member, "json_key", aggregation, default, gate,
//     sinks, per-run value read from `const stats::RunResult& r`)
//
// The table generates the SeriesPoint members (with their defaults, kept
// when a point has no runs), the seed loop in aggregate_point and every
// write_point_fields emitter; a metric's key is typed nowhere else.
#define AG_POINT_METRICS(X)                                                         \
  X(mean_delivery_ratio, "delivery_ratio", F64Mean, 0, always,                     \
    Sink::figure | Sink::scale | Sink::dtn | Sink::adversary, r.delivery_ratio())  \
  X(mean_goodput_pct, "goodput_pct", F64Mean, 100, always,                         \
    Sink::figure, r.mean_goodput_pct())                                             \
  X(mean_transmissions, "transmissions", U64Mean, 0, always,                       \
    Sink::figure | Sink::scale | Sink::dtn | Sink::adversary,                       \
    r.totals.channel_transmissions)                                                 \
  /* Phy work done: channel receiver decisions. */                                  \
  X(mean_deliveries, "deliveries", U64Mean, 0, always,                             \
    Sink::figure | Sink::scale, r.totals.phy_deliveries)                            \
  X(mean_suppressed_down, "suppressed_down", U64Mean, 0, always,                   \
    Sink::figure | Sink::scale, r.totals.phy_suppressed_down)                       \
  X(mean_suppressed_partition, "suppressed_partition", U64Mean, 0, always,         \
    Sink::figure | Sink::scale, r.totals.phy_suppressed_partition)                  \
  /* Data-plane work: table ops and packet-pool behaviour. */                       \
  X(mean_table_probes, "table_probes", U64Mean, 0, always,                         \
    Sink::figure | Sink::scale, r.totals.table_probes)                              \
  X(mean_pool_hits, "pool_hits", U64Mean, 0, always,                               \
    Sink::figure | Sink::scale, r.totals.pool_hits)                                 \
  X(mean_pool_misses, "pool_misses", U64Mean, 0, always,                           \
    Sink::figure | Sink::scale, r.totals.pool_misses)                               \
  X(mean_table_bytes, "table_bytes", U64Mean, 0, always,                           \
    Sink::scale, r.totals.table_bytes)                                              \
  /* DTN custody tier and user sessions. */                                         \
  X(mean_sessions, "sessions", U64Mean, 0, dtn,                                    \
    Sink::figure | Sink::dtn, r.totals.sessions.sessions)                           \
  X(mean_users_served, "users_served", U64Mean, 0, dtn,                            \
    Sink::figure | Sink::dtn, r.totals.sessions.users_served)                       \
  X(mean_user_eligible, "user_eligible", U64Mean, 0, dtn,                          \
    Sink::figure | Sink::dtn, r.totals.sessions.user_eligible)                      \
  X(mean_users_ratio, "users_served_ratio", F64Mean, 0, dtn,                       \
    Sink::figure | Sink::dtn, r.totals.sessions.served_ratio())                     \
  X(mean_custody_stored, "custody_stored", U64Mean, 0, dtn,                        \
    Sink::figure | Sink::dtn, r.totals.custody_stored)                              \
  X(mean_custody_offers, "custody_offers", U64Mean, 0, dtn,                        \
    Sink::figure | Sink::dtn, r.totals.custody_offers)                              \
  X(mean_custody_accepted, "custody_accepted", U64Mean, 0, dtn,                    \
    Sink::figure | Sink::dtn, r.totals.custody_accepted)                            \
  /* Adversary axis and trust layer. */                                             \
  X(mean_adversary_nodes, "adversary_nodes", U64Mean, 0, adversary,                \
    Sink::figure | Sink::adversary, r.totals.adversary_nodes)                       \
  X(mean_adversary_absorbed, "adversary_absorbed", U64Mean, 0, adversary,          \
    Sink::figure | Sink::adversary, r.totals.adversary_absorbed)                    \
  X(mean_adversary_poisoned, "adversary_poisoned", U64Mean, 0, adversary,          \
    Sink::figure | Sink::adversary, r.totals.adversary_poisoned)                    \
  X(mean_trust_isolations, "trust_isolations", F64Mean, 0, adversary,              \
    Sink::figure | Sink::adversary, r.totals.trust_isolations)                      \
  X(mean_trust_false_positives, "trust_false_positives", F64Mean, 0, adversary,    \
    Sink::figure | Sink::adversary, r.totals.trust_false_positives)                 \
  X(mean_trust_filtered, "trust_filtered", U64Mean, 0, adversary,                  \
    Sink::figure | Sink::adversary, r.totals.trust_filtered)                        \
  X(mean_detection_latency_s, "detection_latency_s", WeightedMean, 0, adversary,   \
    Sink::figure | Sink::adversary,                                                 \
    std::make_pair(r.totals.trust_detection_latency_s, r.totals.trust_detections))

struct SeriesPoint {
  double x{0.0};                // swept parameter value
  stats::Summary received;      // per-member received packets across seeds
  // Set when any run of the point carried the DTN/session subsystem or
  // the adversary axis; the figure sink's row gates (see Gate).
  bool dtn_active{false};
  bool adversary_active{false};
#define AG_POINT_MEMBER(member, key, agg, init, gate, sinks, expr) \
  metric::agg::value_type member{init};
  AG_POINT_METRICS(AG_POINT_MEMBER)
#undef AG_POINT_MEMBER
  std::vector<stats::RunResult> runs;   // raw results (one per seed)
};

// Folds per-seed results (in seed order) into one point; the
// ExperimentBuilder calls it once per (protocol, sweep value).
[[nodiscard]] SeriesPoint aggregate_point(double x, std::vector<stats::RunResult> runs);

// Writes the point's fields for `sink` as `, "key": value` pairs: the
// received-packet summary (all five fields in the figure sink,
// received_mean elsewhere), then every AG_POINT_METRICS row declared for
// the sink, in table order. Only the figure sink applies the row gates.
// Numbers use the stream's current precision.
void write_point_fields(std::ostream& out, const SeriesPoint& p, Sink sink);

// Number of seeds per point: AG_SEEDS env var, else `fallback`. Zero,
// negative, or non-numeric AG_SEEDS values are rejected with a warning on
// stderr instead of silently running zero seeds.
[[nodiscard]] std::uint32_t seeds_from_env(std::uint32_t fallback = 5);

}  // namespace ag::harness

#endif  // AG_HARNESS_EXPERIMENT_H
