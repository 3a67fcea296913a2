// Shared plumbing for the figure and ablation benches: CLI flags, the
// single-axis sweep helper (run_figure) and the grid of cells (Grid),
// both built on the fluent ExperimentBuilder (every run on one thread
// pool; results land as a table, a CSV, and a machine-readable
// BENCH_<name>.json).
#ifndef AG_BENCH_FIGURE_COMMON_H
#define AG_BENCH_FIGURE_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/atomic_io.h"
#include "harness/experiment_builder.h"
#include "harness/figure.h"
#include "harness/protocol_registry.h"
#include "harness/scenario.h"
#include "sim/event_category.h"
#include "stats/run_result.h"

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

// Progress callback for a sweep: prints `  [<label> done/total runs]`
// after each run.
inline auto progress_printer(std::string label) {
  return [label = std::move(label)](std::size_t done, std::size_t total) {
    std::printf("  [%s %zu/%zu runs]\n", label.c_str(), done, total);
    std::fflush(stdout);
  };
}

// One cell of a grid bench: its label, its own JSON fields pre-rendered
// as `, "key": value` pairs, its x, and the config it runs (the cell's
// base with `param` = x applied).
struct GridCell {
  std::string label;
  std::string fields;
  double x;
  harness::ScenarioConfig config;
};

// A grid bench (fig8_goodput, ablation_locality, figure_dtn,
// figure_adversary, scale_smoke): one cell per combination of its outer
// axes, each the value x of `param` on the cell's own base config.
// run() runs every (protocol, cell, seed) job as one sweep on one
// thread pool.
struct Grid {
  std::string experiment;
  std::string param;
  harness::ExperimentBuilder::ApplyFn apply;
  std::uint32_t seeds;
  std::vector<harness::Protocol> protocols;
  std::vector<GridCell> cells{};
  // Set by run(): one series per protocol, point i belonging to cell i.
  harness::ExperimentResult result{};

  // Adds a cell that runs `param` = x on `base`.
  void add(std::string label, std::string fields, harness::ScenarioConfig base, double x) {
    apply(base, x);
    cells.push_back({std::move(label), std::move(fields), x, std::move(base)});
  }

  // Runs all cells as one sweep over the cell indices, printing
  // progress; each point then carries its cell's x.
  void run() {
    std::vector<double> indices(cells.size());
    std::iota(indices.begin(), indices.end(), 0.0);
    result = harness::Experiment::sweep(param, std::move(indices),
                                        [this](harness::ScenarioConfig& c, double i) {
                                          c = cells[static_cast<std::size_t>(i)].config;
                                        })
                 .protocols(protocols)
                 .seeds(seeds)
                 .parallel()
                 .name(experiment)
                 .on_progress(progress_printer(experiment))
                 .run();
    for (harness::FigureSeries& s : result.series) {
      for (std::size_t i = 0; i < cells.size(); ++i) s.points[i].x = cells[i].x;
    }
  }

  // Prints cells [first, first + n), which differ only in x, as one
  // figure table with a row per cell.
  void print(std::size_t first, std::size_t n, const std::string& title,
             const std::string& x_label) const {
    std::vector<harness::FigureSeries> rows;
    for (const harness::FigureSeries& s : result.series) {
      const auto begin = s.points.begin() + static_cast<std::ptrdiff_t>(first);
      rows.push_back({s.name, {begin, begin + static_cast<std::ptrdiff_t>(n)}});
    }
    harness::print_figure(title, x_label, rows);
  }

  // Host seconds of cell i's runs (every protocol and seed), summed.
  [[nodiscard]] double run_s(std::size_t i) const {
    double seconds = 0.0;
    for (const harness::FigureSeries& s : result.series) seconds += s.points[i].host_s;
    return seconds;
  }

  // `value(totals)` summed over cell i's runs (every protocol and seed).
  template <typename Value>
  [[nodiscard]] std::uint64_t total(std::size_t i, Value value) const {
    std::uint64_t sum = 0;
    for (const harness::FigureSeries& s : result.series) {
      for (const stats::RunResult& r : s.points[i].runs) sum += value(r.totals);
    }
    return sum;
  }

  // Writes {"experiment", "param", "seeds", <header_fields>, "points":
  // [...]} at 12 significant digits, a point per cell: its label, node
  // count and own fields; run_s (run_s(i)), the executed sim_events and
  // sim_events / run_s; the elision counters and the per-category event
  // mix summed over its runs; then a line per series with the grid-sink
  // point fields.
  [[nodiscard]] bool write_json(const std::string& path,
                                const std::string& header_fields = "") const {
    harness::AtomicFile file{path};
    if (!file.ok()) return false;
    std::ostream& out = file.stream();
    out << std::setprecision(12);
    out << "{\n  \"experiment\": \"" << experiment << "\",\n  \"param\": \"" << param
        << "\",\n  \"seeds\": " << seeds << ",\n" << header_fields << "  \"points\": [\n";
    using Totals = stats::NetworkTotals;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double seconds = run_s(i);
      const std::uint64_t events = total(i, [](const Totals& t) { return t.sim_events; });
      out << "    {\"label\": \"" << cells[i].label << "\", \"nodes\": "
          << cells[i].config.node_count << cells[i].fields << ", \"run_s\": " << seconds
          << ", \"sim_events\": " << events << ", \"events_per_sec\": "
          << (seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0)
          << ", \"mac_slots_elided\": "
          << total(i, [](const Totals& t) { return t.mac_slots_elided(); })
          << ", \"mac_difs_elided\": "
          << total(i, [](const Totals& t) { return t.mac_difs_elided; })
          << ", \"phy_rx_elided\": "
          << total(i, [](const Totals& t) { return t.phy_rx_elided; })
          << ", \"phy_rx_coalesced\": "
          << total(i, [](const Totals& t) { return t.phy_rx_coalesced; })
          << ", \"event_mix\": {";
      for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
        out << (c > 0 ? ", " : "") << "\"" << sim::event_category_name(c)
            << "\": {\"scheduled\": "
            << total(i, [c](const Totals& t) { return t.ev_scheduled[c]; })
            << ", \"executed\": "
            << total(i, [c](const Totals& t) { return t.ev_executed[c]; }) << "}";
      }
      out << "}, \"series\": [\n";
      for (std::size_t s = 0; s < result.series.size(); ++s) {
        out << "      {\"name\": \"" << result.series[s].name << "\"";
        harness::write_point_fields(out, result.series[s].points[i], harness::Sink::grid);
        out << "}" << (s + 1 < result.series.size() ? "," : "") << "\n";
      }
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
          .on_progress(progress_printer(title));
  return finish_figure(builder.run(), title, x_label);
}

}  // namespace ag::bench

#endif  // AG_BENCH_FIGURE_COMMON_H
