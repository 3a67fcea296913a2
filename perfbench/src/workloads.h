// The benchmark's workloads. Each is a batch of scenario runs ("cells",
// one per protocol x swept value x replicate) with no arrival process;
// every cell's ScenarioConfig is generated here from the workload seed,
// so the simulator only ever receives generated inputs.
//
// Cell k of workload seed S runs simulator seed S * cells + k + 1, so
// distinct workload seeds never share a simulator seed and every cell of
// a run is an independent sample: with the figure benches' common random
// numbers (one seed per replicate, shared by every protocol and swept
// value) a run held only `reps` independent samples, and its total work
// moved by several percent from one workload seed to the next.
// scale_1000 is the exception: it always runs simulator seed
// kScaleSimSeed (see perfbench/README.md).
#ifndef AG_PERFBENCH_WORKLOADS_H
#define AG_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.h"

namespace perfbench {

struct Cell {
  std::size_t id{0};
  std::string label;  // "maodv_gossip range_m=45 rep=0"
  ag::harness::ScenarioConfig config;
};

struct Workload {
  std::string name;
  std::string why;
  std::vector<Cell> cells;
};

inline constexpr std::uint64_t kDefaultSeed = 0;
inline constexpr std::uint64_t kScaleSimSeed = 1;
// Largest accepted workload seed: keeps S * cells + k + 1 far from overflow.
inline constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 40;

[[nodiscard]] std::vector<std::string> workload_names();
// Throws std::invalid_argument for an unknown name or a seed above kMaxSeed.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench

#endif  // AG_PERFBENCH_WORKLOADS_H
