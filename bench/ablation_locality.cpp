// Ablation: does the nearest-member locality bias (paper section 4.2)
// matter? Runs AG with the gradient-weighted next-hop choice (alpha = 2)
// vs uniform random walks (alpha = 0) at three ranges, comparing delivery
// and network load.
#include <cstdio>
#include <sstream>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Ablation (section 4.2): nearest-member locality bias vs uniform walks\n"
      "at 0.2 m/s.",
      "  range_m = {45, 55, 75} x locality_alpha = {2, 0} (0 = uniform walk)");
  bench::Grid grid{"ablation_locality", "locality_alpha",
                   [](harness::ScenarioConfig& c, double x) { c.gossip.locality_alpha = x; },
                   harness::seeds_from_env(2),
                   bench::protocols_from_cli(argc, argv, {harness::Protocol::maodv_gossip})};
  constexpr double kRanges[] = {45.0, 55.0, 75.0};
  constexpr double kAlphas[] = {2.0, 0.0};
  for (const double range : kRanges) {
    harness::ScenarioConfig base;
    base.with_range(range).with_max_speed(0.2);
    for (const double alpha : kAlphas) {
      char label[64];
      std::snprintf(label, sizeof label, "range=%g alpha=%g", range, alpha);
      std::ostringstream fields;
      fields << ", \"range_m\": " << range << ", \"locality_alpha\": " << alpha;
      grid.add(label, fields.str(), base, alpha);
    }
  }
  grid.run();
  for (std::size_t r = 0; r < std::size(kRanges); ++r) {
    char title[96];
    std::snprintf(title, sizeof title,
                  "Ablation: nearest-member locality bias (section 4.2), range %g m",
                  kRanges[r]);
    grid.print(r * std::size(kAlphas), std::size(kAlphas), title, "alpha");
  }

  if (!grid.write_json("BENCH_ablation_locality.json")) {
    std::fprintf(stderr, "error: failed to write BENCH_ablation_locality.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_ablation_locality.json; %u seeds)\n\n", grid.seeds);
  return 0;
}
