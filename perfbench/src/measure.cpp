// ag-lint: allow-file(determinism, host wall-clock and CPU time are what the benchmark measures)
#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

// Reads one "<key>:   <n> kB" line of /proc/self/status, in MiB.
double status_kb_field(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      mb = std::strtod(line + key_len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace

double rss_mb() { return status_kb_field("VmRSS"); }
double peak_rss_mb() { return status_kb_field("VmHWM"); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(n * p / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * pct / 100.0));
  return rank >= n ? 0 : n - rank;
}

double tail_pct(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

TailPoint tail_of(const std::vector<double>& values) {
  TailPoint t;
  t.pct = tail_pct(values.size());
  t.beyond = samples_beyond(values.size(), t.pct);
  t.value = percentile(values, t.pct);
  return t;
}

}  // namespace perfbench
