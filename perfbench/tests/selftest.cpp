// Self-tests for the benchmark's own code: the tail-percentile rule, span
// self-time arithmetic, the metric-name grammar, the output checks, the
// workload generator, and — on one 40-node maodv_gossip cell — that the
// seam wrappers and run_until slicing leave the RunResult unchanged.
// Exits 0 when every check passes; prints each failure.
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"
#include "report.h"
#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

void test_tail_rule() {
  CHECK(tail_pct(1) == 50.0);
  CHECK(samples_beyond(1, 50.0) == 0);
  CHECK(tail_pct(20) == 50.0 && samples_beyond(20, 50.0) == 10);
  CHECK(tail_pct(39) == 50.0);  // p75 leaves only 9 beyond
  CHECK(tail_pct(40) == 75.0 && samples_beyond(40, 75.0) == 10);
  CHECK(tail_pct(54) == 75.0 && samples_beyond(54, 75.0) == 13);
  CHECK(tail_pct(100) == 90.0);
  CHECK(tail_pct(1000) == 99.0);
  CHECK(tail_pct(10000) == 99.9);

  std::vector<double> v;
  for (int i = 54; i >= 1; --i) v.push_back(i);  // unsorted input
  const TailPoint t = tail_of(v);
  CHECK(t.pct == 75.0 && t.beyond == 13 && t.value == 41.0);
  CHECK(median(v) == 27.0);
  CHECK(percentile({}, 50.0) == 0.0);
  const TailPoint one = tail_of({3.5});
  CHECK(one.pct == 50.0 && one.beyond == 0 && one.value == 3.5);
}

void test_self_time() {
  // Overlapping children count once; parts outside the parent are clipped.
  CHECK(self_time_ns({0, 100}, {{10, 30}, {20, 40}, {90, 120}, {-5, 5}}) == 55);
  CHECK(self_time_ns({0, 100}, {}) == 100);
  CHECK(self_time_ns({0, 100}, {{0, 100}, {30, 60}}) == 0);
  CHECK(self_time_ns({0, 100}, {{200, 300}, {50, 50}}) == 100);

  // Recorded spans: a cell with a setup child and a phase child that had
  // 25 ns of seam time folded into it.
  const std::vector<Span> spans = {{"cell", 0, kNoParent, 0, {0, 100}, 0},
                                   {"setup", 1, 0, 0, {0, 20}, 0},
                                   {"phase.traffic", 2, 0, 0, {20, 90}, 25}};
  const std::vector<std::int64_t> self = span_self_times(spans);
  CHECK(self.size() == 3 && self[0] == 10 && self[1] == 20 && self[2] == 45);

  // Gossip nested in routing.rx is subtracted from the rx call's self time;
  // a gossip call outside any rx call stands alone.
  SeamFold fold;
  fold.open(Seam::routing_rx, 0);
  fold.open(Seam::gossip_observer, 10);
  fold.close(30);
  fold.close(50);
  fold.open(Seam::gossip_observer, 60);
  fold.close(65);
  CHECK(fold.idle());
  CHECK(fold.totals(Seam::routing_rx).calls == 1);
  CHECK(fold.totals(Seam::routing_rx).self_ns == 30);
  CHECK(fold.totals(Seam::gossip_observer).calls == 2);
  CHECK(fold.totals(Seam::gossip_observer).self_ns == 25);
  CHECK(fold.top_level_ns() == 55);
}

// A router stand-in whose rx handler calls into the gossip seam, as
// MAODV's does when a data packet arrives.
class NestingRouter final : public ag::mac::MacListener {
 public:
  explicit NestingRouter(ag::gossip::RouterObserver& gossip) : gossip_{gossip} {}
  void on_packet_received(const ag::net::Packet&, ag::net::NodeId from) override {
    gossip_.on_self_membership_changed(ag::net::GroupId{1}, true);
    gossip_.on_member_learned(ag::net::GroupId{1}, from, 2);
  }
  void on_unicast_failed(const ag::net::Packet&, ag::net::NodeId) override {}

 private:
  ag::gossip::RouterObserver& gossip_;
};

class CountingObserver final : public ag::gossip::RouterObserver {
 public:
  int calls{0};
  void on_multicast_data(const ag::net::MulticastData&, ag::net::NodeId) override { ++calls; }
  void on_tree_neighbor_added(ag::net::GroupId, ag::net::NodeId, std::uint16_t) override {
    ++calls;
  }
  void on_tree_neighbor_removed(ag::net::GroupId, ag::net::NodeId) override { ++calls; }
  void on_self_membership_changed(ag::net::GroupId, bool) override { ++calls; }
  void on_member_learned(ag::net::GroupId, ag::net::NodeId, std::uint8_t) override {
    ++calls;
  }
  void on_gossip_packet(const ag::net::Packet&, ag::net::NodeId) override { ++calls; }
};

void test_seam_wrappers_nest() {
  SeamFold fold;
  CountingObserver agent;
  ObserverSeam observer{agent, fold};
  NestingRouter router{observer};
  RxSeam rx{router, fold};
  const ag::net::Packet packet{};
  rx.on_packet_received(packet, ag::net::NodeId{3});
  rx.on_unicast_failed(packet, ag::net::NodeId{3});
  CHECK(agent.calls == 2);
  CHECK(fold.idle());
  CHECK(fold.totals(Seam::routing_rx).calls == 1);
  CHECK(fold.totals(Seam::routing_unicast_failed).calls == 1);
  CHECK(fold.totals(Seam::gossip_observer).calls == 2);
  std::int64_t self_sum = 0;
  for (const Seam s : {Seam::routing_rx, Seam::routing_unicast_failed, Seam::gossip_observer}) {
    CHECK(fold.totals(s).self_ns >= 0);
    self_sum += fold.totals(s).self_ns;
  }
  CHECK(self_sum == fold.top_level_ns());
}

void test_metric_names() {
  CHECK(valid_metric_name("sim.cancelled_frac.mac_slot"));
  CHECK(valid_metric_name("a-b_c.9"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("_x"));
  CHECK(!valid_metric_name("a b"));
  CHECK(!valid_metric_name("a/b"));
  CHECK(!valid_metric_name("caf\xc3\xa9"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));

  std::set<std::string> seen;
  bool has_setup = false;
  for (const MetricDef& d : catalogue()) {
    CHECK(valid_metric_name(d.name));
    CHECK(seen.insert(d.name).second);
    const std::string unit = d.unit;
    CHECK(!unit.empty() && unit.size() <= 16);
    CHECK(unit.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                 "0123456789_/%.-") == std::string::npos);
    if (d.scope == Scope::end_to_end) {
      CHECK(d.bound > 0.0 && d.bound <= 0.25);
      if (unit == "s" && std::string{d.name} == "setup_s") has_setup = !d.higher_is_better;
    }
  }
  CHECK(has_setup);

  Report r{Scope::end_to_end};
  bool threw = false;
  try {
    r.set("no.such_metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)r.finish();
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);  // nothing set yet
}

void test_output_checks() {
  ag::stats::RunResult r;
  r.packets_sent = 10;
  ag::stats::MemberResult m;
  m.received = 10;
  m.via_gossip = 3;
  r.members.push_back(m);
  CHECK(invariant_violation(r).empty());
  const std::vector<std::uint64_t> base = fingerprint(r);

  r.members[0].received = 11;
  CHECK(!invariant_violation(r).empty());
  r.members[0].received = 2;
  CHECK(!invariant_violation(r).empty());  // via_gossip 3 > received 2
  r.members[0].via_gossip = 0;
  CHECK(invariant_violation(r).empty());
  CHECK(fingerprint(r) != base);

  ag::stats::RunResult s;
  s.packets_sent = 10;
  s.members.push_back(m);
  CHECK(fingerprint(s) == base);
  s.faults.node_down_s = 1e-300;
  CHECK(fingerprint(s) != base);
}

void test_workloads() {
  const Workload fig2 = make_workload("paper_fig2", 0);
  CHECK(fig2.cells.size() == 54);
  CHECK(fig2.cells[0].config.seed == 1 && fig2.cells[53].config.seed == 54);
  CHECK(fig2.cells[0].config.phy.transmission_range_m == 45.0);
  CHECK(make_workload("paper_fig2", 1).cells[0].config.seed == 55);
  CHECK(make_workload("churn", 0).cells.size() == 50);
  const Workload scale = make_workload("scale_1000", 5);
  CHECK(scale.cells.size() == 1 && scale.cells[0].config.node_count == 1000);
  CHECK(scale.cells[0].config.member_count() == 13);
  CHECK(scale.cells[0].config.seed == kScaleSimSeed);

  std::set<std::uint64_t> seeds;
  for (const Cell& c : make_workload("churn", 3).cells) seeds.insert(c.config.seed);
  for (const Cell& c : make_workload("churn", 4).cells) seeds.insert(c.config.seed);
  CHECK(seeds.size() == 100);  // one simulator seed per cell, never shared

  bool threw = false;
  try {
    (void)make_workload("nope", 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)make_workload("churn", kMaxSeed + 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_traced_cell_matches_untraced() {
  Workload one = make_workload("paper_fig2", kDefaultSeed);
  one.cells.resize(1);  // maodv_gossip, 45 m, replicate 0
  CHECK(one.cells[0].config.protocol == ag::harness::Protocol::maodv_gossip);
  const Batch untraced = run_batch(one, 1, false);
  const Batch traced = run_batch(one, 1, true);
  CHECK(untraced.runs[0].ok && traced.runs[0].ok);
  CHECK(fingerprint(untraced.runs[0].result) == fingerprint(traced.runs[0].result));
  CHECK(untraced.runs[0].result.totals.sim_events > 0);

  const CellTrace& tr = traced.traces[0];
  CHECK(tr.spans.size() == 7);
  CHECK(tr.seams[static_cast<std::size_t>(Seam::routing_rx)].calls > 0);
  CHECK(tr.seams[static_cast<std::size_t>(Seam::gossip_observer)].calls > 0);
  CHECK(tr.pending.size() == 600);  // one sample per simulated second
  double phases = 0.0;
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    CHECK(tr.phase_self_s[k] >= 0.0 && tr.phase_self_s[k] <= tr.phase_s[k]);
    phases += tr.phase_s[k];
  }
  CHECK(phases <= traced.runs[0].cell_s);
  for (const std::int64_t self : span_self_times(tr.spans)) CHECK(self >= 0);

  const std::vector<Metric> layer = per_layer_metrics(untraced, traced, 0);
  CHECK(!layer.empty());

  // runs counts the cells the pool ran per round.
  CHECK(untraced.executed == 1 && traced.executed == 1);
  SetupTimer setup{one};
  setup.sample();
  CHECK(setup.setup_s() > 0.0);
  for (const Metric& m : end_to_end_metrics({untraced, untraced}, setup.setup_s())) {
    if (std::string{m.def->name} == "runs") CHECK(m.value == 1.0);
  }
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_seam_wrappers_nest();
  test_metric_names();
  test_output_checks();
  test_workloads();
  test_traced_cell_matches_untraced();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
