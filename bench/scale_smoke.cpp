// Scaling smoke: pushes the simulator well past the paper's 40 nodes
// (ROADMAP: 500+ nodes need the phy spatial index — transmit() used to be
// O(n) per frame). Each node count is timed individually, so the bench
// reports wall-clock and simulator-event throughput per point alongside
// the delivery stats; everything lands in BENCH_scale.json so CI can
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
#include <string>
#include <vector>

#include "figure_common.h"
#include "harness/atomic_io.h"
#include "sim/event_category.h"

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

// Events executed, per-category scheduled/executed event counts, and
// the work the analytic engines elided (MAC slot/DIFS events, phy
// reception completions), summed over every run of a point.
struct EventMixTotals {
  std::uint64_t sim_events{0};
  std::uint64_t scheduled[ag::sim::kEventCategoryCount]{};
  std::uint64_t executed[ag::sim::kEventCategoryCount]{};
  std::uint64_t slots_elided{0};
  std::uint64_t difs_elided{0};
  std::uint64_t phy_rx_elided{0};
  std::uint64_t phy_rx_coalesced{0};
};

// Node-seconds ceiling: the full-length duration times the largest node
// count that still runs it (see the header comment).
constexpr double kFullDurationS = 80.0;
constexpr double kMaxNodeSeconds = 1000.0 * kFullDurationS;

struct PointReport {
  std::size_t nodes;
  double duration_s;
  double wall_s;
  EventMixTotals mix;
  ag::harness::ExperimentResult result;  // one sweep value, one point per series
};

EventMixTotals total_event_mix(const ag::harness::ExperimentResult& result) {
  EventMixTotals mix;
  for (const ag::harness::FigureSeries& s : result.series) {
    for (const ag::harness::SeriesPoint& p : s.points) {
      for (const ag::stats::RunResult& r : p.runs) {
        mix.sim_events += r.totals.sim_events;
        for (std::size_t c = 0; c < ag::sim::kEventCategoryCount; ++c) {
          mix.scheduled[c] += r.totals.ev_scheduled[c];
          mix.executed[c] += r.totals.ev_executed[c];
        }
        mix.slots_elided += r.totals.mac_slots_elided();
        mix.difs_elided += r.totals.mac_difs_elided;
        mix.phy_rx_elided += r.totals.phy_rx_elided;
        mix.phy_rx_coalesced += r.totals.phy_rx_coalesced;
      }
    }
  }
  return mix;
}

bool write_scale_json(const std::string& path, const std::vector<PointReport>& reports,
                      std::uint32_t seeds) {
  ag::harness::AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << "{\n";
  out << "  \"experiment\": \"scale_smoke\",\n";
  out << "  \"param\": \"node_count\",\n";
  out << "  \"seeds\": " << seeds << ",\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const PointReport& rep = reports[i];
    const double events_per_sec =
        rep.wall_s > 0.0 ? static_cast<double>(rep.mix.sim_events) / rep.wall_s : 0.0;
    out << "    {\"nodes\": " << rep.nodes << ", \"sim_duration_s\": " << rep.duration_s
        << ", \"wall_clock_s\": " << rep.wall_s
        << ", \"sim_events\": " << rep.mix.sim_events
        << ", \"events_per_sec\": " << events_per_sec
        << ", \"mac_slots_elided\": " << rep.mix.slots_elided
        << ", \"mac_difs_elided\": " << rep.mix.difs_elided
        << ", \"phy_rx_elided\": " << rep.mix.phy_rx_elided
        << ", \"phy_rx_coalesced\": " << rep.mix.phy_rx_coalesced
        << ", \"event_mix\": {";
    for (std::size_t c = 0; c < ag::sim::kEventCategoryCount; ++c) {
      out << (c > 0 ? ", " : "") << "\"" << ag::sim::event_category_name(c)
          << "\": {\"scheduled\": " << rep.mix.scheduled[c]
          << ", \"executed\": " << rep.mix.executed[c] << "}";
    }
    out << "}, \"series\": [\n";
    ag::bench::write_cell_series(out, rep.result, ag::harness::Sink::scale);
    out << "    ]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return file.commit();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ag;
  const std::uint32_t seeds = harness::seeds_from_env(1);
  const std::vector<harness::Protocol> protocols =
      bench::protocols_from_cli(argc, argv, bench::headline_protocols());
  const std::vector<std::size_t> node_counts =
      nodes_from_cli(argc, argv, {40, 120, 250, 500, 1000, 2000});

  const harness::ScenarioConfig base = bench::paper_base();

  std::printf("== Scaling smoke (constant mean degree, short run) ==\n");
  std::printf("%-8s %-7s %-10s %-12s %-12s per-protocol received avg (delivery)\n",
              "#nodes", "sim(s)", "wall(s)", "sim events", "events/s");

  std::vector<PointReport> reports;
  for (const std::size_t n : node_counts) {
    // Node-seconds cap: full 80 s through 1000 nodes, shrinking beyond
    // (see the header comment). Workload occupies the middle half.
    const double duration_s =
        std::min(kFullDurationS, kMaxNodeSeconds / static_cast<double>(n));
    harness::ScenarioConfig point_base = base;
    point_base.duration = sim::SimTime::seconds(duration_s);
    point_base.workload.start = sim::SimTime::seconds(0.25 * duration_s);
    point_base.workload.end = sim::SimTime::seconds(0.75 * duration_s);
    auto [result, wall_s] = bench::timed_run(
        harness::Experiment::sweep("node_count", {static_cast<double>(n)},
                                   [](harness::ScenarioConfig& c, double x) {
                                     c.with_nodes(static_cast<std::size_t>(x))
                                         .with_range(75.0 * std::sqrt(40.0 / x))
                                         .with_max_speed(1.0);
                                     c.member_fraction = std::min(1.0, 13.0 / x);
                                   })
            .base(point_base)
            .protocols(protocols)
            .seeds(seeds)
            .parallel()
            .name("scale_smoke"));
    const EventMixTotals mix = total_event_mix(result);
    const std::uint64_t events = mix.sim_events;

    std::printf("%-8zu %-7.0f %-10.2f %-12llu %-12.3g",
                n, duration_s, wall_s, static_cast<unsigned long long>(events),
                wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0);
    for (const harness::FigureSeries& s : result.series) {
      const harness::SeriesPoint& p = s.points.front();
      std::printf("  %s=%.1f (%.2f)", s.name.c_str(), p.received.mean,
                  p.mean_delivery_ratio);
    }
    std::printf("\n");
    std::fflush(stdout);
    reports.push_back({n, duration_s, wall_s, mix, std::move(result)});
  }

  if (!write_scale_json("BENCH_scale.json", reports, seeds)) {
    std::fprintf(stderr, "error: failed to write BENCH_scale.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_scale.json; %u seeds; wall-clock covers "
              "all parallel jobs of a point)\n", seeds);
  return 0;
}
