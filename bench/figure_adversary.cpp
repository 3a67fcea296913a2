// Adversary figure: graceful degradation and trust-based recovery. Sweeps
// adversary_fraction x adversary_mode x (isolation off/on) over the core
// protocols plus flooding_gossip ("gossip over flood", the substrate the
// trust watchdog is sharpest on), fault-free otherwise so the axis is
// isolated: every delivery delta against the fraction=0 column is the
// adversaries' (or the trust layer's) doing.
//
// Every cell runs on one thread pool, and BENCH_adversary.json records
// the host seconds each cell's runs took, so it doubles as a perf
// record; per-series adversary counters (absorbed, poisoned, isolations,
// false positives, detection latency) land next to the delivery numbers.
//
// Usage: figure_adversary [--smoke] [--protocols=name,name]
//   --smoke shrinks the grid for CI: 2 modes x {0, 0.2, 0.35} x both
//   isolation settings over {flooding_gossip, maodv_gossip}, 120 s runs.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace ag;
  bench::handle_help_flag(
      argc, argv,
      "Adversary figure: delivery degradation vs adversary_fraction per\n"
      "adversary mode, with and without trust-based isolation.",
      "  adversary_fraction x mode {blackhole, selective_forward,\n"
      "  gossip_poison} x isolation {off, on}",
      "  --smoke           2 modes x 3 fractions, 120 s runs (CI)\n");
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  // Two seeds even in smoke: the recovery margins this figure exists to
  // show are a handful of packets per run, and one seed of a 120 s
  // scenario is inside that noise band.
  const std::uint32_t seeds = harness::seeds_from_env(2);

  // Default protocol set: the five core substrates plus gossip-over-flood
  // (non-core, so it rides only here unless asked for by name elsewhere).
  std::vector<harness::Protocol> protocols =
      harness::ProtocolRegistry::instance().all();
  protocols.push_back(harness::Protocol::flooding_gossip);
  protocols = bench::protocols_from_cli(
      argc, argv,
      smoke ? std::vector<harness::Protocol>{harness::Protocol::flooding_gossip,
                                             harness::Protocol::maodv_gossip}
            : protocols);

  // Sparser than the paper midpoint on purpose: at range 65 the flood is
  // so redundant that even 35% blackholes cost nothing, and around range
  // 50 absorbing relays can *help* delivery by relieving MAC contention.
  // Range 42 puts the flood coverage-dominated: every absorbed relay is a
  // real coverage hole, so degradation is monotone in the adversary
  // fraction and the isolation layer's recovery is visible, not masked.
  harness::ScenarioConfig base;
  base.with_range(42.0).with_max_speed(1.0);
  if (smoke) {
    base.duration = sim::SimTime::seconds(120.0);
    base.workload.start = sim::SimTime::seconds(20.0);
    base.workload.end = sim::SimTime::seconds(100.0);
  }

  struct Mode {
    faults::AdversaryMode mode;
    const char* name;
  };
  // Smoke keeps the two modes the trust layer can actually fight:
  // selective_forward (watchdog-detectable — a pure blackhole goes
  // RF-silent on flooding and is invisible to overhearing) and
  // gossip_poison (junk-reply-detectable). The full grid adds blackhole
  // as the undetectable-limit column.
  const std::vector<Mode> modes =
      smoke ? std::vector<Mode>{{faults::AdversaryMode::selective_forward,
                                 "selective_forward"},
                                {faults::AdversaryMode::gossip_poison,
                                 "gossip_poison"}}
            : std::vector<Mode>{{faults::AdversaryMode::blackhole, "blackhole"},
                                {faults::AdversaryMode::selective_forward,
                                 "selective_forward"},
                                {faults::AdversaryMode::gossip_poison,
                                 "gossip_poison"}};
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.0, 0.2, 0.35}
            : std::vector<double>{0.0, 0.1, 0.2, 0.3};

  std::printf("== Adversary axis x trust isolation ==\n");

  bench::Grid grid{"adversary", "adversary_fraction",
                   [](harness::ScenarioConfig& c, double x) {
                     c.faults.spec.adversary_fraction = x;
                   },
                   seeds, protocols};
  for (const Mode& mode : modes) {
    for (const bool isolation : {false, true}) {
      for (const double fraction : fractions) {
        harness::ScenarioConfig cell_base = base;
        cell_base.faults.spec.adversary_mode = mode.mode;
        cell_base.trust.enabled = isolation;
        // Arm the detector matched to the threat under test, the way an
        // operator hardens against a known attack class: the forwarding
        // watchdog for drop attacks (the only detector that can see a
        // selective forwarder), the always-on junk-reply scorer alone for
        // poisoning (where the watchdog could only add noise). The
        // watchdog ships with an inherent false-positive rate — the
        // fraction=0 column with isolation on prices exactly that cost.
        cell_base.trust.watchdog =
            isolation && mode.mode != faults::AdversaryMode::gossip_poison;
        // Watchdog operating point for this sparse regime: at degree ~5
        // honest capture ratios sit lower than in the dense unit-test
        // topologies the TrustParams defaults are tuned for, so the floor
        // drops and the evidence bar rises (fewer, better-founded
        // isolations — the probe grid showed 0.25/40 doubles the FP count
        // here for no extra recovery).
        cell_base.trust.forward_ratio_floor = 0.2;
        cell_base.trust.min_expected = 60.0;
        char label[96];
        std::snprintf(label, sizeof label, "mode=%s isolation=%s fraction=%g",
                      mode.name, isolation ? "on" : "off", fraction);
        std::ostringstream fields;
        fields << ", \"mode\": \"" << mode.name << "\""
               << ", \"isolation\": " << (isolation ? "true" : "false")
               << ", \"adversary_fraction\": " << fraction;
        grid.add(label, fields.str(), cell_base, fraction);
      }
    }
  }
  grid.run();
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    std::printf("-- %s --\n", grid.cells[i].label.c_str());
    for (const harness::FigureSeries& s : grid.result.series) {
      const harness::SeriesPoint& p = s.points[i];
      std::printf("  %-16s delivery=%.3f adversaries=%llu absorbed=%llu "
                  "poisoned=%llu isolated=%.1f fp=%.1f latency=%.1fs\n",
                  s.name.c_str(), p.mean_delivery_ratio,
                  static_cast<unsigned long long>(p.mean_adversary_nodes),
                  static_cast<unsigned long long>(p.mean_adversary_absorbed),
                  static_cast<unsigned long long>(p.mean_adversary_poisoned),
                  p.mean_trust_isolations, p.mean_trust_false_positives,
                  p.mean_detection_latency_s);
    }
  }

  if (!grid.write_json("BENCH_adversary.json")) {
    std::fprintf(stderr, "error: failed to write BENCH_adversary.json\n");
    return 1;
  }
  std::printf("(json written to BENCH_adversary.json; %u seeds; "
              "scripts/scale_summary.py renders it too)\n", seeds);
  return 0;
}
