// Shared plumbing for the per-figure reproduction benches: the paper's
// base configuration (section 5.1) and the sweep helper producing the
// Gossip-vs-MAODV series every figure plots, built on the fluent
// ExperimentBuilder (seeds run in parallel; results land as a table, a
// CSV, and a machine-readable BENCH_<fig>.json).
#ifndef AG_BENCH_FIGURE_COMMON_H
#define AG_BENCH_FIGURE_COMMON_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/atomic_io.h"
#include "harness/experiment_builder.h"
#include "harness/figure.h"
#include "harness/protocol_registry.h"
#include "harness/scenario.h"

namespace ag::bench {

// The paper's headline comparison pair.
inline std::vector<harness::Protocol> headline_protocols() {
  return {harness::Protocol::maodv_gossip, harness::Protocol::maodv};
}

// Parses a `--protocols=name,name` flag (registry string names, see
// `quickstart` for the list) anywhere in argv; returns `fallback` when
// absent. Validation lives in ProtocolRegistry::parse_list (unit-tested):
// an unknown name or an empty list fails fast with exit(2) and the
// registry's message naming every registered protocol.
inline std::vector<harness::Protocol> protocols_from_cli(
    int argc, char** argv, std::vector<harness::Protocol> fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--protocols=", 12) != 0) continue;
    try {
      return harness::ProtocolRegistry::instance().parse_list(arg + 12);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
  }
  return fallback;
}

// True when `flag` (e.g. "--smoke") appears in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Shared --help/-h implementation for every figure bench: one place lists
// the common flags and environment knobs, each binary passes its one-line
// description, its swept axes, and any bench-specific flags. Prints and
// exits 0 when the flag is present; returns otherwise.
inline void handle_help_flag(int argc, char** argv, const char* description,
                             const char* axes, const char* extra_flags = nullptr) {
  if (!has_flag(argc, argv, "--help") && !has_flag(argc, argv, "-h")) return;
  std::printf("usage: %s [flags]\n\n%s\n\nSwept axes:\n%s\n\nFlags:\n", argv[0],
              description, axes);
  if (extra_flags != nullptr) std::printf("%s", extra_flags);
  std::printf(
      "  --protocols=a,b   protocol series to run (registry names; see error\n"
      "                    message of an unknown name for the full list)\n"
      "  --help, -h        this text\n"
      "\nEnvironment knobs (all runs are bit-identical across the engine\n"
      "hatches; see README \"Environment variables\"):\n"
      "  AG_SEEDS=<n>            seeds per point (overrides the default)\n"
      "  AG_SPATIAL_INDEX=off    brute-force phy neighbor scan\n"
      "  AG_DENSE_TABLES=off     ordered-map table backends\n"
      "  AG_BATCHED_BACKOFF=off  per-slot MAC contention reference engine\n"
      "  AG_BATCHED_PHY=off      per-receiver radio reference engine\n");
  std::exit(0);
}

// Shared tail for every ExperimentBuilder bench: runs the sweep in-process,
// prints the table, and writes the CSV + BENCH JSON atomically. Returns
// the process exit code.
inline int finish_figure(const harness::ExperimentBuilder& builder,
                         const std::string& title, const std::string& x_label,
                         const std::string& csv_name, const std::string& json_name,
                         std::uint32_t seeds) {
  const harness::ExperimentResult result = builder.run();
  result.print(title, x_label);
  const bool csv_ok = result.write_csv(csv_name);
  const bool json_ok = result.write_json(json_name);
  if (!csv_ok || !json_ok) {
    std::fprintf(stderr, "error: failed to write %s\n",
                 (!csv_ok ? csv_name : json_name).c_str());
    return 1;
  }
  std::printf("(csv written to %s, json to %s; %u seeds — set AG_SEEDS to "
              "change)\n\n",
              csv_name.c_str(), json_name.c_str(), seeds);
  return 0;
}

// A sweep run in-process, with the wall-clock seconds it took (all of
// its parallel jobs together).
struct TimedResult {
  harness::ExperimentResult result;
  double wall_s;
};

inline TimedResult timed_run(const harness::ExperimentBuilder& builder) {
  // ag-lint: allow(determinism, wall-clock measures the harness itself)
  const auto t0 = std::chrono::steady_clock::now();
  harness::ExperimentResult result = builder.run();
  // ag-lint: allow(determinism, wall-clock measures the harness itself)
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  return {std::move(result), wall.count()};
}

// Simulated work behind a result, independent of the engine: events
// executed plus the work the batched MAC/phy engines represented without
// an event, summed over every run. The emitted `sim_events` field is
// therefore identical across the AG_BATCHED_* modes; `wall_clock_s` and
// `events_per_sec` next to it are not.
inline std::uint64_t effective_sim_events(const harness::ExperimentResult& result) {
  std::uint64_t events = 0;
  for (const harness::FigureSeries& s : result.series) {
    for (const harness::SeriesPoint& p : s.points) {
      for (const stats::RunResult& r : p.runs) {
        events += r.totals.sim_events + r.totals.mac_events_elided() +
                  r.totals.phy_events_elided();
      }
    }
  }
  return events;
}

// Writes the per-series lines of one grid cell (a single-value sweep, so
// one point per series): `{"name": ..., <write_point_fields(sink)>}`,
// comma-separated, one per line.
inline void write_cell_series(std::ostream& out, const harness::ExperimentResult& result,
                              harness::Sink sink) {
  for (std::size_t s = 0; s < result.series.size(); ++s) {
    const harness::FigureSeries& series = result.series[s];
    out << "      {\"name\": \"" << series.name << "\"";
    harness::write_point_fields(out, series.points.front(), sink);
    out << "}" << (s + 1 < result.series.size() ? "," : "") << "\n";
  }
}

// One cell of a grid bench (figure_dtn, figure_adversary): a timed
// single-value sweep over every protocol, plus the cell's own JSON
// fields pre-rendered as `, "key": value` pairs.
struct GridCell {
  std::string label;
  std::string fields;
  std::size_t nodes;
  TimedResult run;
};

// Writes a grid bench's JSON: {"experiment", "param", "seeds",
// <header_fields>, "points": [...]}, where each point carries its label,
// node count and own fields, wall clock, effective_sim_events and
// events/sec, then one line per series with the `sink` fields.
inline bool write_grid_json(const std::string& path, const char* experiment,
                            const char* param, std::uint32_t seeds,
                            const std::string& header_fields,
                            const std::vector<GridCell>& cells, harness::Sink sink) {
  harness::AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << "{\n  \"experiment\": \"" << experiment << "\",\n  \"param\": \"" << param
      << "\",\n  \"seeds\": " << seeds << ",\n" << header_fields << "  \"points\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& cell = cells[i];
    const std::uint64_t events = effective_sim_events(cell.run.result);
    const double wall_s = cell.run.wall_s;
    out << "    {\"label\": \"" << cell.label << "\", \"nodes\": " << cell.nodes
        << cell.fields << ", \"wall_clock_s\": " << wall_s << ", \"sim_events\": " << events
        << ", \"events_per_sec\": "
        << (wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0)
        << ", \"series\": [\n";
    write_cell_series(out, cell.run.result, sink);
    out << "    ]}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return file.commit();
}

// Paper section 5.1 defaults: 200x200 m, 40 nodes, 1/3 members, 600 s,
// 2201 packets from t=120 s, gossip 1 msg/s. Range/speed set per figure.
inline harness::ScenarioConfig paper_base() {
  harness::ScenarioConfig c;
  return c;
}

// Strips a trailing extension: "fig2.csv" -> "fig2".
inline std::string stem_of(const std::string& file_name) {
  const std::size_t dot = file_name.rfind('.');
  return dot == std::string::npos ? file_name : file_name.substr(0, dot);
}

// Runs one x-sweep over `protocols` (default: the headline pair; benches
// pass protocols_from_cli so `--protocols=` selects any registered set)
// and emits the figure as a table, a CSV, and BENCH_<stem>.json. `apply`
// mutates the config for a given x value; the return value is the process
// exit code.
inline int run_two_series_figure(
    const std::string& title, const std::string& x_label,
    const std::string& csv_name, const std::vector<double>& xs,
    const std::function<void(harness::ScenarioConfig&, double)>& apply,
    std::uint32_t seeds, harness::ScenarioConfig base = paper_base(),
    std::vector<harness::Protocol> protocols = headline_protocols()) {
  const std::string stem = stem_of(csv_name);
  const std::string json_name = "BENCH_" + stem + ".json";
  harness::ExperimentBuilder builder =
      harness::Experiment::sweep(x_label, xs, apply)
          .base(base)
          .protocols(std::move(protocols))
          .seeds(seeds)
          .parallel()
          .name(stem)
          .on_progress([&title](std::size_t done, std::size_t total) {
            std::printf("  [%s %zu/%zu runs]\n", title.c_str(), done, total);
            std::fflush(stdout);
          });
  return finish_figure(builder, title, x_label, csv_name, json_name, seeds);
}

}  // namespace ag::bench

#endif  // AG_BENCH_FIGURE_COMMON_H
