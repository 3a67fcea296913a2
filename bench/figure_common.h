// Shared plumbing for the figure and ablation benches: CLI flags, the
// single-axis sweep helper (run_figure) and the grid of single-value
// sweeps (Grid), all built on the fluent ExperimentBuilder (seeds run in
// parallel; results land as a table, a CSV, and a machine-readable
// BENCH_<name>.json).
#ifndef AG_BENCH_FIGURE_COMMON_H
#define AG_BENCH_FIGURE_COMMON_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <ostream>
#include <span>
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
      "\nEnvironment (see README \"Environment variables\"):\n"
      "  AG_SEEDS=<n>      seeds per point (overrides the default)\n");
  std::exit(0);
}

// Shared tail for every single-axis bench: prints the sweep's table and
// writes <name>.csv and BENCH_<name>.json atomically, `name` being the
// experiment's. Returns the process exit code.
inline int finish_figure(const harness::ExperimentResult& result, const std::string& title,
                         const std::string& x_label) {
  const std::string csv_name = result.name + ".csv";
  const std::string json_name = "BENCH_" + result.name + ".json";
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
              csv_name.c_str(), json_name.c_str(), result.seeds);
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

// Simulator events executed behind a result, summed over every run.
inline std::uint64_t total_sim_events(const harness::ExperimentResult& result) {
  std::uint64_t events = 0;
  for (const harness::FigureSeries& s : result.series) {
    for (const harness::SeriesPoint& p : s.points) {
      for (const stats::RunResult& r : p.runs) events += r.totals.sim_events;
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

// One cell of a grid bench: a timed single-value sweep over every
// protocol, plus the cell's own JSON fields pre-rendered as
// `, "key": value` pairs.
struct GridCell {
  std::string label;
  std::string fields;
  std::size_t nodes;
  TimedResult run;
};

// A grid bench (fig8_goodput, ablation_locality, figure_dtn,
// figure_adversary): one cell per combination of its outer axes, each a
// timed sweep of the single value `param` = x over every protocol.
struct Grid {
  std::string experiment;
  std::string param;
  harness::ExperimentBuilder::ApplyFn apply;
  std::uint32_t seeds;
  std::vector<harness::Protocol> protocols;
  std::vector<GridCell> cells{};

  // Runs `param` = x on `base` as the next cell; returns its result.
  const harness::ExperimentResult& run(std::string label, std::string fields,
                                       const harness::ScenarioConfig& base, double x) {
    cells.push_back({std::move(label), std::move(fields), base.node_count,
                     timed_run(harness::Experiment::sweep(param, {x}, apply)
                                   .base(base)
                                   .protocols(protocols)
                                   .seeds(seeds)
                                   .parallel()
                                   .name(experiment))});
    return cells.back().run.result;
  }

  // Prints the last `n` cells, which differ only in x, as one figure
  // table with a row per cell.
  void print_last(std::size_t n, const std::string& title, const std::string& x_label) const {
    const std::span<const GridCell> last = std::span(cells).last(n);
    std::vector<harness::FigureSeries> series = last.front().run.result.series;
    for (const GridCell& cell : last.subspan(1)) {
      for (std::size_t s = 0; s < series.size(); ++s) {
        series[s].points.push_back(cell.run.result.series[s].points.front());
      }
    }
    harness::print_figure(title, x_label, series);
  }

  // Writes {"experiment", "param", "seeds", <header_fields>, "points":
  // [...]}, where each point carries its label, node count and own
  // fields, wall clock, executed sim_events and events/sec, then one line
  // per series with the `sink` fields.
  [[nodiscard]] bool write_json(const std::string& path, const std::string& header_fields,
                                harness::Sink sink) const {
    harness::AtomicFile file{path};
    if (!file.ok()) return false;
    std::ostream& out = file.stream();
    out << "{\n  \"experiment\": \"" << experiment << "\",\n  \"param\": \"" << param
        << "\",\n  \"seeds\": " << seeds << ",\n" << header_fields << "  \"points\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GridCell& cell = cells[i];
      const std::uint64_t events = total_sim_events(cell.run.result);
      const double wall_s = cell.run.wall_s;
      out << "    {\"label\": \"" << cell.label << "\", \"nodes\": " << cell.nodes
          << cell.fields << ", \"wall_clock_s\": " << wall_s
          << ", \"sim_events\": " << events << ", \"events_per_sec\": "
          << (wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0)
          << ", \"series\": [\n";
      write_cell_series(out, cell.run.result, sink);
      out << "    ]}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return file.commit();
  }
};

// Runs one x-sweep and emits the figure as a table, <name>.csv and
// BENCH_<name>.json. `apply` sets x on the paper's section 5.1
// environment (ScenarioConfig's defaults). Seeds per point default to
// `default_seeds` (AG_SEEDS overrides) and protocols to
// `default_protocols` (`--protocols=` overrides). The return value is
// the process exit code.
inline int run_figure(int argc, char** argv, const std::string& title,
                      const std::string& x_label, const std::string& name,
                      const std::vector<double>& xs,
                      const harness::ExperimentBuilder::ApplyFn& apply,
                      std::uint32_t default_seeds,
                      std::vector<harness::Protocol> default_protocols = headline_protocols()) {
  const std::uint32_t seeds = harness::seeds_from_env(default_seeds);
  harness::ExperimentBuilder builder =
      harness::Experiment::sweep(x_label, xs, apply)
          .protocols(protocols_from_cli(argc, argv, std::move(default_protocols)))
          .seeds(seeds)
          .parallel()
          .name(name)
          .on_progress([&title](std::size_t done, std::size_t total) {
            std::printf("  [%s %zu/%zu runs]\n", title.c_str(), done, total);
            std::fflush(stdout);
          });
  return finish_figure(builder.run(), title, x_label);
}

}  // namespace ag::bench

#endif  // AG_BENCH_FIGURE_COMMON_H
