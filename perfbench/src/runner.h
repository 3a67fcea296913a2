// Runs a workload's cells on a pool of worker threads, driving
// harness::Network from outside through its constructor, run_until and
// result(). An untraced cell is timed as a whole; a traced cell records
// coarse spans, slices the run at every simulated second (sampling the
// event-queue depth) and installs forwarding wrappers at the MAC ->
// router and router -> gossip seams.
#ifndef AG_PERFBENCH_RUNNER_H
#define AG_PERFBENCH_RUNNER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/run_result.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

inline constexpr std::size_t kPhaseCount = 4;
inline constexpr const char* kPhaseNames[kPhaseCount] = {"join", "warmup", "traffic",
                                                         "drain"};

struct CellRun {
  ag::stats::RunResult result;
  bool ok{false};
  std::string error{"never ran"};  // why the cell failed
  // Host times, taken in traced cells only.
  double setup_s{0.0};
  double result_s{0.0};
  double cell_s{0.0};
};

// What a traced cell adds to its CellRun.
struct CellTrace {
  std::vector<Span> spans;
  std::array<SeamFold::Totals, kSeamCount> seams{};
  std::array<double, kPhaseCount> phase_s{};
  std::array<double, kPhaseCount> phase_self_s{};  // minus top-level seam time
  std::vector<double> pending;                     // queue depth per simulated second
  double rss_after_setup_mb{0.0};
  double rss_growth_mb{0.0};
};

struct Batch {
  std::vector<CellRun> runs;
  std::vector<CellTrace> traces;  // one per cell when traced, else empty
  unsigned workers{1};
  std::size_t executed{0};  // cells the pool ran, failed or not
  double wall_s{0.0};
  double cpu_s{0.0};
};

// Worker threads for `cells` cells: min(hardware threads, 4, cells).
[[nodiscard]] unsigned worker_count(std::size_t cells);

[[nodiscard]] Batch run_batch(const Workload& workload, unsigned workers, bool traced);

// setup_s is timed apart from the batch, on one thread, in windows spread
// over the run: one before the first round and one after each round. A
// window makes at least kSetupMinPasses passes and lasts at least
// kSetupWindowS seconds. A construction takes 0.4 ms (40 nodes) to 10 ms
// (1000 nodes) and varies little within a window, but by up to a quarter
// between processes started a minute apart: the host's load drifts.
inline constexpr int kSetupMinPasses = 5;
inline constexpr double kSetupWindowS = 0.25;

class SetupTimer {
 public:
  explicit SetupTimer(const Workload& workload);
  // One window: passes over the cells, constructing each cell's Network
  // once per pass.
  void sample();
  // Each cell's median construction time over every window, summed.
  [[nodiscard]] double setup_s() const;

 private:
  const Workload* workload_;
  std::vector<std::vector<double>> times_;  // per cell
};

// Exact, canonical encoding of every RunResult field (doubles by their
// bits): two results are identical iff their fingerprints are equal.
[[nodiscard]] std::vector<std::uint64_t> fingerprint(const ag::stats::RunResult& r);
// FNV-1a over the fingerprints of the successful runs, in cell order.
[[nodiscard]] std::uint64_t digest(const std::vector<CellRun>& runs);
// Empty when `r` passes the output checks, else what it broke.
[[nodiscard]] std::string invariant_violation(const ag::stats::RunResult& r);

}  // namespace perfbench

#endif  // AG_PERFBENCH_RUNNER_H
