// Shared plumbing for the per-figure reproduction benches: the paper's
// base configuration (section 5.1) and the sweep helper producing the
// Gossip-vs-MAODV series every figure plots, built on the fluent
// ExperimentBuilder (seeds run in parallel; results land as a table, a
// CSV, and a machine-readable BENCH_<fig>.json).
#ifndef AG_BENCH_FIGURE_COMMON_H
#define AG_BENCH_FIGURE_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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
