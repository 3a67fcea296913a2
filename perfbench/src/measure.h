// Host-side measurement primitives for the benchmark: a monotonic clock,
// process CPU time and resident memory, and the order statistics every
// reported timing uses (median, quartiles, and the tail percentile rule).
#ifndef AG_PERFBENCH_MEASURE_H
#define AG_PERFBENCH_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Monotonic host time in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// User + system CPU seconds consumed by the whole process so far.
[[nodiscard]] double process_cpu_s();
// Current resident set size (VmRSS) and its high-water mark (VmHWM), MiB.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

// The tail rule: the highest percentile of the ladder {99.9, 99, 95, 90,
// 75} that still has at least ten samples beyond it, where "beyond" is
// n - ceil(n * p / 100) — the samples ranked after the nearest-rank
// percentile. Fewer than twenty samples leave no such percentile; the
// rule then falls back to the median (p = 50) and says how many samples
// lie beyond it, so a caller always reports a percentile with its count.
struct TailPoint {
  double pct{50.0};
  std::size_t beyond{0};
  double value{0.0};
};
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);
[[nodiscard]] double tail_pct(std::size_t n);
[[nodiscard]] TailPoint tail_of(const std::vector<double>& values);

}  // namespace perfbench

#endif  // AG_PERFBENCH_MEASURE_H
