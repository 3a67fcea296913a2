// Figure 8: gossip goodput (% of non-duplicate messages among gossip-reply
// messages) at each group member, for two transmission ranges x two
// maximum speeds. The paper reports 97-100 % everywhere — nearly every
// gossip reply carried a useful (non-redundant) message. The table shows
// each cell's mean goodput; fig8.csv holds the per-member values.
#include <cstdio>
#include <sstream>
#include <vector>

#include "figure_common.h"

namespace {

constexpr double kSpeeds[] = {0.2, 2.0};
constexpr double kRanges[] = {45.0, 75.0};

// One row per (protocol, cell, member): the member's goodput averaged
// over the cell's seeds. Cells are in kSpeeds x kRanges order.
bool write_member_csv(const char* path, const ag::bench::Grid& grid) {
  ag::harness::AtomicFile file{path};
  if (!file.ok()) return false;
  file.stream() << "protocol,range,speed,member,goodput_pct\n";
  for (const ag::harness::FigureSeries& series : grid.result.series) {
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      const ag::harness::SeriesPoint& p = series.points[c];
      std::vector<double> sums(p.runs.front().members.size(), 0.0);
      for (const ag::stats::RunResult& r : p.runs) {
        for (std::size_t i = 0; i < r.members.size(); ++i) {
          sums[i] += r.members[i].goodput_pct();
        }
      }
      for (std::size_t i = 0; i < sums.size(); ++i) {
        char line[128];
        std::snprintf(line, sizeof line, "%s,%g,%g,%zu,%f\n", series.name.c_str(), p.x,
                      kSpeeds[c / std::size(kRanges)], i + 1,
                      sums[i] / static_cast<double>(p.runs.size()));
        file.stream() << line;
      }
    }
  }
  return file.commit();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Paper figure 8 (section 5.5): gossip goodput — % non-duplicate messages\namong gossip-reply traffic.",
      "  max_speed_mps = {0.2, 2} x range_m = {45, 75}");
  // Goodput is a gossip metric; default to the paper's gossip-over-MAODV,
  // but any registered substrate can be measured via --protocols=.
  bench::Grid grid{"fig8", "range_m",
                   [](harness::ScenarioConfig& c, double x) { c.with_range(x); },
                   harness::seeds_from_env(3),
                   bench::protocols_from_cli(argc, argv, {harness::Protocol::maodv_gossip})};
  for (const double speed : kSpeeds) {
    harness::ScenarioConfig base;
    base.with_max_speed(speed);
    for (const double range : kRanges) {
      char label[64];
      std::snprintf(label, sizeof label, "speed=%g range=%g", speed, range);
      std::ostringstream fields;
      fields << ", \"max_speed_mps\": " << speed << ", \"range_m\": " << range;
      grid.add(label, fields.str(), base, range);
    }
  }
  grid.run();
  for (std::size_t v = 0; v < std::size(kSpeeds); ++v) {
    char title[64];
    std::snprintf(title, sizeof title, "Figure 8: Gossip goodput, max speed %g m/s",
                  kSpeeds[v]);
    grid.print(v * std::size(kRanges), std::size(kRanges), title, "range(m)");
  }

  const bool csv_ok = write_member_csv("fig8.csv", grid);
  if (!csv_ok || !grid.write_json("BENCH_fig8.json")) {
    std::fprintf(stderr, "error: failed to write %s\n",
                 csv_ok ? "BENCH_fig8.json" : "fig8.csv");
    return 1;
  }
  std::printf("(per-member goodput written to fig8.csv, json to BENCH_fig8.json; %u "
              "seeds, paper used 10 — set AG_SEEDS to change)\n\n",
              grid.seeds);
  return 0;
}
