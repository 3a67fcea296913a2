// The fluent experiment API: sweep wiring, JSON emission (and the
// AtomicFile commit-or-nothing writes behind it), and the parallelism
// contract — multi-seed points executed across N worker threads must be
// bit-identical to the serial run for fixed seeds. Also the benches'
// bench::Grid, which runs a grid of cells as one such sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "figure_common.h"
#include "harness/atomic_io.h"
#include "harness/experiment_builder.h"

namespace fs = std::filesystem;

namespace ag::harness {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A fresh per-test scratch directory under the system temp dir.
class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ag_atomic_file_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path_in(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

ScenarioConfig tiny_base() {
  ScenarioConfig c;
  c.node_count = 10;
  c.phy.transmission_range_m = 75.0;
  c.waypoint.max_speed_mps = 0.5;
  c.duration = sim::SimTime::seconds(40.0);
  c.workload.start = sim::SimTime::seconds(12.0);
  c.workload.end = sim::SimTime::seconds(32.0);
  return c;
}

void set_range(ScenarioConfig& c, double x) { c.with_range(x); }

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s].name, b.series[s].name);
    ASSERT_EQ(a.series[s].points.size(), b.series[s].points.size());
    for (std::size_t i = 0; i < a.series[s].points.size(); ++i) {
      const SeriesPoint& pa = a.series[s].points[i];
      const SeriesPoint& pb = b.series[s].points[i];
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.received.mean, pb.received.mean);
      EXPECT_DOUBLE_EQ(pa.received.min, pb.received.min);
      EXPECT_DOUBLE_EQ(pa.received.max, pb.received.max);
      EXPECT_DOUBLE_EQ(pa.received.stddev, pb.received.stddev);
      EXPECT_EQ(pa.received.n, pb.received.n);
      EXPECT_DOUBLE_EQ(pa.mean_delivery_ratio, pb.mean_delivery_ratio);
      EXPECT_DOUBLE_EQ(pa.mean_goodput_pct, pb.mean_goodput_pct);
      EXPECT_EQ(pa.mean_transmissions, pb.mean_transmissions);
      ASSERT_EQ(pa.runs.size(), pb.runs.size());
      for (std::size_t r = 0; r < pa.runs.size(); ++r) {
        EXPECT_EQ(pa.runs[r].seed, pb.runs[r].seed);
        EXPECT_EQ(pa.runs[r].totals.channel_transmissions,
                  pb.runs[r].totals.channel_transmissions);
      }
    }
  }
}

TEST(ExperimentBuilder, ParallelSeedsMatchSerialExactly) {
  auto build = [] {
    return Experiment::sweep("range_m", {65.0, 80.0}, set_range)
        .base(tiny_base())
        .protocols({Protocol::maodv_gossip, Protocol::maodv})
        .seeds(2);
  };
  ExperimentResult serial = build().parallel(1).run();
  ExperimentResult threaded = build().parallel(4).run();
  expect_identical(serial, threaded);
}

TEST(ExperimentBuilder, SeriesNamedFromRegistryAndSized) {
  ExperimentResult r = Experiment::sweep("range_m", {70.0, 80.0}, set_range)
                           .base(tiny_base())
                           .protocols({Protocol::flooding})
                           .seeds(1)
                           .run();
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series.front().name, "flooding");
  ASSERT_EQ(r.series.front().points.size(), 2u);
  EXPECT_EQ(r.series.front().points.front().runs.size(), 1u);
  EXPECT_GT(r.series.front().points.front().received.mean, 0.0);
}

TEST(ExperimentBuilder, CustomApplySweepsArbitraryKnobs) {
  ExperimentResult r =
      Experiment::sweep("pause_s", {0.0, 10.0},
                        [](ScenarioConfig& c, double x) { c.waypoint.max_pause_s = x; })
          .base(tiny_base())
          .protocols({Protocol::maodv})
          .seeds(1)
          .run();
  ASSERT_EQ(r.series.front().points.size(), 2u);
  EXPECT_EQ(r.param, "pause_s");
}

TEST(ExperimentBuilder, WritesJson) {
  const std::string path = "/tmp/ag_experiment_builder_test.json";
  ExperimentResult r = Experiment::sweep("range_m", {70.0}, set_range)
                           .base(tiny_base())
                           .protocols({Protocol::maodv_gossip})
                           .seeds(1)
                           .name("builder_test")
                           .run();
  ASSERT_TRUE(r.write_json(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"experiment\": \"builder_test\""), std::string::npos);
  EXPECT_NE(json.find("\"param\": \"range_m\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"maodv_gossip\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": 70"), std::string::npos);
  EXPECT_NE(json.find("\"delivery_ratio\":"), std::string::npos);
  std::remove(path.c_str());
}

// A hand-made run: `k` scales every counter a metric row reads, so two
// runs with k = 3 and k = 4 give odd sums (floor-divided by the u64 rows)
// and distinct doubles.
stats::RunResult synthetic_run(std::uint64_t k) {
  stats::RunResult r;
  r.packets_sent = 10;
  stats::MemberResult m;
  m.received = k;
  m.replies_received = 4;
  m.replies_useful = k - 1;
  r.members.push_back(m);
  stats::NetworkTotals& t = r.totals;
  t.channel_transmissions = k;
  t.phy_deliveries = 10 * k + 1;
  t.phy_suppressed_down = k + 2;
  t.phy_suppressed_partition = k + 4;
  t.table_probes = 100 * k;
  t.pool_hits = 3 * k;
  t.pool_misses = k;
  t.table_bytes = 1000 * k + 1;
  t.sessions.sessions = k;
  t.sessions.users_served = k;
  t.sessions.user_eligible = 2 * k;
  t.custody_stored = k;
  t.custody_offers = 5 * k;
  t.custody_accepted = k;
  t.adversary_nodes = k;
  t.adversary_absorbed = 7 * k;
  t.adversary_poisoned = k;
  t.trust_isolations = k;
  t.trust_false_positives = k - 3;
  t.trust_filtered = 9 * k;
  t.trust_detection_latency_s = 10.0 * static_cast<double>(k);
  return r;
}

SeriesPoint synthetic_point(bool dtn, bool adversary) {
  std::vector<stats::RunResult> runs{synthetic_run(3), synthetic_run(4)};
  runs[0].totals.dtn_active = dtn;
  runs[1].totals.adversary_active = adversary;
  return aggregate_point(1.0, std::move(runs));
}

// The keys write_point_fields emits, in order.
std::vector<std::string> keys_written(const SeriesPoint& p, Sink sink) {
  std::ostringstream out;
  write_point_fields(out, p, sink);
  const std::string fields = out.str();
  std::vector<std::string> keys;
  for (std::size_t at = fields.find(", \""); at != std::string::npos;
       at = fields.find(", \"", at + 1)) {
    const std::size_t begin = at + 3;
    keys.push_back(fields.substr(begin, fields.find("\": ", begin) - begin));
  }
  return keys;
}

std::vector<std::string> concat(std::vector<std::string> a, const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<std::string> kPhyAndDataPlane{
    "deliveries", "suppressed_down", "suppressed_partition",
    "table_probes", "pool_hits", "pool_misses"};
const std::vector<std::string> kDtnKeys{
    "sessions", "users_served", "user_eligible", "users_served_ratio",
    "custody_stored", "custody_offers", "custody_accepted"};
const std::vector<std::string> kAdversaryKeys{
    "adversary_nodes", "adversary_absorbed", "adversary_poisoned",
    "trust_isolations", "trust_false_positives", "trust_filtered",
    "detection_latency_s"};

TEST(PointMetrics, AggregateFloorsCountsAndAveragesDoubles) {
  const SeriesPoint p = synthetic_point(false, false);
  EXPECT_EQ(p.mean_transmissions, 3u);         // (3 + 4) / 2, floored
  EXPECT_EQ(p.mean_deliveries, 36u);           // (31 + 41) / 2
  EXPECT_EQ(p.mean_suppressed_down, 5u);       // (5 + 6) / 2, floored
  EXPECT_EQ(p.mean_custody_offers, 17u);       // (15 + 20) / 2, floored
  EXPECT_EQ(p.mean_trust_filtered, 31u);       // (27 + 36) / 2, floored
  EXPECT_DOUBLE_EQ(p.mean_delivery_ratio, 0.35);  // (0.3 + 0.4) / 2
  EXPECT_DOUBLE_EQ(p.mean_goodput_pct, 62.5);     // (50 + 75) / 2
  EXPECT_DOUBLE_EQ(p.mean_users_ratio, 0.5);
  EXPECT_DOUBLE_EQ(p.mean_trust_isolations, 3.5);
  EXPECT_DOUBLE_EQ(p.mean_trust_false_positives, 0.5);
  EXPECT_DOUBLE_EQ(p.received.mean, 3.5);
  EXPECT_FALSE(p.dtn_active);
  EXPECT_FALSE(p.adversary_active);
  // The gates are ORs over the runs.
  const SeriesPoint gated = synthetic_point(true, true);
  EXPECT_TRUE(gated.dtn_active);
  EXPECT_TRUE(gated.adversary_active);
  // A point without runs keeps the declared defaults.
  const SeriesPoint empty = aggregate_point(0.0, {});
  EXPECT_DOUBLE_EQ(empty.mean_goodput_pct, 100.0);
  EXPECT_EQ(empty.mean_transmissions, 0u);
}

TEST(PointMetrics, DetectionLatencyIsWeightedByDetections) {
  // One seed isolates its adversary 30 s in; the other detects nobody
  // and reports 0.0. The point's latency is 30 s, not (30 + 0) / 2.
  stats::RunResult detected;
  detected.totals.adversary_active = true;
  detected.totals.trust_detection_latency_s = 30.0;
  detected.totals.trust_detections = 1;
  stats::RunResult missed;
  missed.totals.adversary_active = true;
  EXPECT_DOUBLE_EQ(aggregate_point(0.2, {detected, missed}).mean_detection_latency_s,
                   30.0);
  // Runs weigh by how many adversaries they detected: (30 + 3 * 10) / 4.
  stats::RunResult three = detected;
  three.totals.trust_detection_latency_s = 10.0;
  three.totals.trust_detections = 3;
  EXPECT_DOUBLE_EQ(aggregate_point(0.2, {detected, three}).mean_detection_latency_s,
                   15.0);
  EXPECT_DOUBLE_EQ(aggregate_point(0.2, {missed, missed}).mean_detection_latency_s, 0.0);
}

TEST(PointMetrics, EachSinkEmitsItsDeclaredKeysInOrder) {
  const std::vector<std::string> figure_core =
      concat({"received_mean", "received_min", "received_max", "received_stddev",
              "receivers", "delivery_ratio", "goodput_pct", "transmissions"},
             kPhyAndDataPlane);
  const SeriesPoint off = synthetic_point(false, false);
  // The figure sink drops gated rows whose flag is off...
  EXPECT_EQ(keys_written(off, Sink::figure), figure_core);
  // ...and emits each group once its flag is set.
  EXPECT_EQ(keys_written(synthetic_point(true, false), Sink::figure),
            concat(figure_core, kDtnKeys));
  EXPECT_EQ(keys_written(synthetic_point(false, true), Sink::figure),
            concat(figure_core, kAdversaryKeys));
  EXPECT_EQ(keys_written(synthetic_point(true, true), Sink::figure),
            concat(concat(figure_core, kDtnKeys), kAdversaryKeys));
  // The grid sink writes every row in table order, whatever the flags;
  // table_bytes (Gate::grid) appears nowhere else.
  const std::vector<std::string> every_key =
      concat(concat(concat(figure_core, {"table_bytes"}), kDtnKeys), kAdversaryKeys);
  EXPECT_EQ(keys_written(off, Sink::grid), every_key);
  EXPECT_EQ(keys_written(synthetic_point(true, true), Sink::grid), every_key);
}

TEST(PointMetrics, FieldsUseTheCallersPrecision) {
  const SeriesPoint p = synthetic_point(false, false);
  std::ostringstream out;
  out << std::setprecision(3);
  write_point_fields(out, p, Sink::grid);
  EXPECT_EQ(out.str(),
            ", \"received_mean\": 3.5, \"received_min\": 3, \"received_max\": 4, "
            "\"received_stddev\": 0.707, \"receivers\": 2, \"delivery_ratio\": 0.35, "
            "\"goodput_pct\": 62.5, \"transmissions\": 3, \"deliveries\": 36, "
            "\"suppressed_down\": 5, \"suppressed_partition\": 7, \"table_probes\": 350, "
            "\"pool_hits\": 10, \"pool_misses\": 3, \"table_bytes\": 3501, "
            "\"sessions\": 3, \"users_served\": 3, \"user_eligible\": 7, "
            "\"users_served_ratio\": 0.5, \"custody_stored\": 3, \"custody_offers\": 17, "
            "\"custody_accepted\": 3, \"adversary_nodes\": 3, \"adversary_absorbed\": 24, "
            "\"adversary_poisoned\": 3, \"trust_isolations\": 3.5, "
            "\"trust_false_positives\": 0.5, \"trust_filtered\": 31, "
            "\"detection_latency_s\": 0");
}

// A grid runs all its cells as one sweep. Each point must still equal
// what its cell gives as a single-value sweep of its own, on every
// metric row and run seed, and carry the cell's x and its host time.
TEST(Grid, EachPointMatchesItsCellsOwnSweep) {
  ScenarioConfig larger = tiny_base();
  larger.node_count = 14;
  const std::vector<ScenarioConfig> bases{tiny_base(), larger};
  const std::vector<double> xs{65.0, 80.0};
  bench::Grid grid{"grid_test", "range_m", set_range, 2,
                   {Protocol::maodv_gossip, Protocol::maodv}};
  for (std::size_t i = 0; i < bases.size(); ++i) grid.add("cell", "", bases[i], xs[i]);
  grid.run();
  ASSERT_EQ(grid.result.series.size(), 2u);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const ExperimentResult own = Experiment::sweep("range_m", {xs[i]}, set_range)
                                     .base(bases[i])
                                     .protocols(grid.protocols)
                                     .seeds(2)
                                     .run();
    for (std::size_t s = 0; s < own.series.size(); ++s) {
      ASSERT_EQ(grid.result.series[s].points.size(), bases.size());
      const SeriesPoint& p = grid.result.series[s].points[i];
      const SeriesPoint& q = own.series[s].points.front();
      EXPECT_EQ(p.x, xs[i]);
      EXPECT_GT(p.host_s, 0.0);
      EXPECT_EQ(p.received.mean, q.received.mean);
      EXPECT_EQ(p.received.n, q.received.n);
#define AG_EXPECT_SAME(member, key, agg, init, gate, expr) \
  EXPECT_EQ(p.member, q.member) << key << " in cell " << i;
      AG_POINT_METRICS(AG_EXPECT_SAME)
#undef AG_EXPECT_SAME
      ASSERT_EQ(p.runs.size(), q.runs.size());
      for (std::size_t r = 0; r < p.runs.size(); ++r) {
        EXPECT_EQ(p.runs[r].seed, q.runs[r].seed);
      }
    }
  }
  EXPECT_GT(grid.run_s(0), 0.0);
}

TEST_F(AtomicFileTest, AtomicFileCommitsOrLeavesNothing) {
  const std::string path = path_in("out.txt");
  {
    harness::AtomicFile file{path};
    ASSERT_TRUE(file.ok());
    file.stream() << "payload";
    EXPECT_FALSE(fs::exists(path));  // nothing visible before commit
    ASSERT_TRUE(file.commit());
  }
  EXPECT_EQ(read_file(path), "payload");

  const std::string dropped = path_in("dropped.txt");
  {
    harness::AtomicFile file{dropped};
    file.stream() << "never visible";
    // no commit: destructor must remove the temp file
  }
  EXPECT_FALSE(fs::exists(dropped));
  std::size_t residue = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++residue;
    }
  }
  EXPECT_EQ(residue, 0u);
}

TEST(SeedsFromEnv, RejectsZeroAndGarbage) {
  unsetenv("AG_SEEDS");
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "0", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "-3", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "7abc", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "", 1);
  EXPECT_EQ(seeds_from_env(4), 4u);
  setenv("AG_SEEDS", "12", 1);
  EXPECT_EQ(seeds_from_env(4), 12u);
  unsetenv("AG_SEEDS");
}

}  // namespace
}  // namespace ag::harness
