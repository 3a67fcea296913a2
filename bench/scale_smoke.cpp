// Scaling smoke: pushes the simulator well past the paper's 40 nodes
// (ROADMAP: 500+ nodes need the phy spatial index — transmit() used to be
// O(n) per frame). It is a bench::Grid with one cell per node count, so
// every run of every point shares one thread pool. Each point reports
// run_s, the host seconds its runs took summed over protocols and seeds,
// and simulator-event throughput (sim_events / run_s) alongside the
// delivery stats; everything lands in BENCH_scale.json so CI can
// accumulate a perf trajectory. Runs are kept short — this is a
// build-health and throughput check for large networks (default sweep
// now tops out at 2000 nodes on the dense data plane), not a paper
// figure; fig6/fig7 remain the measured node-count sweeps. Range scales
// as 75*sqrt(40/n) to hold mean degree roughly constant while the area
// stays 200x200 m, and the group stays at the paper's 13 members (1/3 of
// 40) so group size is not what grows. Delivery still falls with n:
// maodv_gossip delivers about 0.12 of its packets at 1000 nodes (1.00,
// 0.93, 0.50, 0.32, 0.12 at 40, 120, 250, 500, 1000 nodes, one seed), and
// the cause has not been found yet (open in ROADMAP.md).
//
// Points up to 1000 nodes simulate the full 80 s (workload 20-60 s), so
// their numbers stay comparable across the perf trajectory. Beyond that
// the simulated duration shrinks to hold node-seconds constant at
// 1000 * 80 — a 5000-node point simulates 16 s — because a saturated
// medium generates events proportional to n * duration and huge points
// must still land inside a CI-sized wall-clock budget. The per-point
// duration is printed and recorded in BENCH_scale.json, and the
// workload window scales with it (25-75 % of the run), so every point
// states exactly what it measured.
//
// Usage: scale_smoke [--protocols=name,name] [--nodes=n,n,...]
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

namespace {

// Parses a `--nodes=250,500` flag anywhere in argv; returns `fallback`
// when absent. Bad values fail fast with exit(2) like --protocols=,
// naming the offending token and the expected form (same philosophy as
// sim::env_positive_u32: never silently run a different sweep than the
// one the user typed). Rejected outright: empty list, empty element
// ("250,,500"), trailing comma, zero/negative counts, non-numeric
// garbage, signs/whitespace inside a token, and overflow past the cap.
std::vector<std::size_t> nodes_from_cli(int argc, char** argv,
                                        std::vector<std::size_t> fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--nodes=", 8) != 0) continue;
    const char* list = arg + 8;
    const auto fail = [&](const char* token) {
      const char* comma = std::strchr(token, ',');
      const int len = static_cast<int>(comma != nullptr
                                           ? comma - token
                                           : static_cast<std::ptrdiff_t>(
                                                 std::strlen(token)));
      std::fprintf(stderr,
                   "%s: bad --nodes= count \"%.*s\" in \"--nodes=%s\" — "
                   "expected --nodes=N[,N...] with each N an integer in "
                   "[2, 1000000]\n",
                   argv[0], len, token, list);
      std::exit(2);
    };
    if (*list == '\0') {
      std::fprintf(stderr,
                   "%s: --nodes= is empty — expected --nodes=N[,N...] with "
                   "each N an integer in [2, 1000000]\n",
                   argv[0]);
      std::exit(2);
    }
    std::vector<std::size_t> out;
    const char* p = list;
    while (true) {
      // strtol accepts leading whitespace and signs; the sweep grammar
      // does not — a token must start with a digit.
      if (*p < '0' || *p > '9') fail(p);
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(p, &end, 10);
      if (errno != 0 || end == p || v < 2 || v > 1'000'000 ||
          (*end != '\0' && *end != ',')) {
        fail(p);
      }
      out.push_back(static_cast<std::size_t>(v));
      if (*end == '\0') break;
      p = end + 1;  // past the comma; "250," leaves p on '\0' -> fail above
    }
    return out;
  }
  return fallback;
}

// Node-seconds ceiling: the full-length duration times the largest node
// count that still runs it (see the header comment).
constexpr double kFullDurationS = 80.0;
constexpr double kMaxNodeSeconds = 1000.0 * kFullDurationS;

}  // namespace

int main(int argc, char** argv) {
  using namespace ag;
  const std::vector<std::size_t> node_counts =
      nodes_from_cli(argc, argv, {40, 120, 250, 500, 1000, 2000});
  bench::Grid grid{"scale_smoke", "node_count",
                   [](harness::ScenarioConfig& c, double x) {
                     c.with_nodes(static_cast<std::size_t>(x))
                         .with_range(75.0 * std::sqrt(40.0 / x))
                         .with_max_speed(1.0);
                     c.member_fraction = std::min(1.0, 13.0 / x);
                   },
                   harness::seeds_from_env(1),
                   bench::protocols_from_cli(argc, argv, bench::headline_protocols())};
  for (const std::size_t n : node_counts) {
    // Node-seconds cap: full 80 s through 1000 nodes, shrinking beyond
    // (see the header comment). Workload occupies the middle half.
    const double duration_s =
        std::min(kFullDurationS, kMaxNodeSeconds / static_cast<double>(n));
    harness::ScenarioConfig base;
    base.duration = sim::SimTime::seconds(duration_s);
    base.workload.start = sim::SimTime::seconds(0.25 * duration_s);
    base.workload.end = sim::SimTime::seconds(0.75 * duration_s);
    std::ostringstream fields;
    fields << ", \"sim_duration_s\": " << duration_s;
    grid.add("nodes=" + std::to_string(n), fields.str(), base, static_cast<double>(n));
  }

  std::printf("== Scaling smoke (constant mean degree, short run) ==\n");
  grid.run();
  std::printf("%-8s %-7s %-10s %-12s %-12s per-protocol received avg (delivery)\n",
              "#nodes", "sim(s)", "run(s)", "sim events", "events/s");
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    const harness::ScenarioConfig& c = grid.cells[i].config;
    const double run_s = grid.run_s(i);
    const std::uint64_t events =
        grid.total(i, [](const stats::NetworkTotals& t) { return t.sim_events; });
    std::printf("%-8zu %-7.0f %-10.2f %-12llu %-12.3g", c.node_count,
                c.duration.to_seconds(), run_s, static_cast<unsigned long long>(events),
                run_s > 0.0 ? static_cast<double>(events) / run_s : 0.0);
    for (const harness::FigureSeries& s : grid.result.series) {
      const harness::SeriesPoint& p = s.points[i];
      std::printf("  %s=%.1f (%.2f)", s.name.c_str(), p.received.mean,
                  p.mean_delivery_ratio);
    }
    std::printf("\n");
  }

  if (!grid.write_json("BENCH_scale.json")) {
    std::fprintf(stderr, "error: failed to write BENCH_scale.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_scale.json; %u seeds; run(s) sums the host "
              "seconds of every run of a point)\n", grid.seeds);
  return 0;
}
