#include "harness/figure.h"

#include <algorithm>
#include <cstdio>

#include "harness/atomic_io.h"

namespace ag::harness {

namespace {

// One series block per row: " | " then the five fixed-width fields. The
// header puts the series name on its own line above the column labels,
// and a long x label widens the x column on every line.
constexpr int kBlockWidth = 44;  // "%10.1f %6.0f %6.0f %9.2f %9llu"

template <typename... Args>
void append(std::string& out, const char* format, Args... args) {
  const int n = std::snprintf(nullptr, 0, format, args...);
  if (n <= 0) return;
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<std::size_t>(n) + 1, format, args...);
  out.resize(at + static_cast<std::size_t>(n));
}

}  // namespace

std::string format_figure(const std::string& title, const std::string& x_label,
                          const std::vector<FigureSeries>& series) {
  const std::size_t rows = series.empty() ? 0 : series.front().points.size();
  std::vector<std::string> xs(rows);
  int x_width = std::max(12, static_cast<int>(x_label.size()));
  for (std::size_t i = 0; i < rows; ++i) {
    append(xs[i], "%g", series.front().points[i].x);
    x_width = std::max(x_width, static_cast<int>(xs[i].size()));
  }

  std::string out = "== " + title + " ==\n";
  append(out, "%-*s", x_width, "");
  for (const FigureSeries& s : series) append(out, " | %-*s", kBlockWidth, s.name.c_str());
  out += '\n';
  append(out, "%-*s", x_width, x_label.c_str());
  for (std::size_t k = 0; k < series.size(); ++k) {
    append(out, " | %10s %6s %6s %9s %9s", "avg", "min", "max", "goodput%", "tx/run");
  }
  out += '\n';
  for (std::size_t i = 0; i < rows; ++i) {
    append(out, "%-*s", x_width, xs[i].c_str());
    for (const FigureSeries& s : series) {
      if (i < s.points.size()) {
        const SeriesPoint& p = s.points[i];
        append(out, " | %10.1f %6.0f %6.0f %9.2f %9llu", p.received.mean, p.received.min,
               p.received.max, p.mean_goodput_pct,
               static_cast<unsigned long long>(p.mean_transmissions));
      }
    }
    out += '\n';
  }
  return out;
}

void print_figure(const std::string& title, const std::string& x_label,
                  const std::vector<FigureSeries>& series) {
  std::fputs(format_figure(title, x_label, series).c_str(), stdout);
  std::fflush(stdout);
}

bool write_figure_csv(const std::string& path, const std::vector<FigureSeries>& series) {
  // Temp-file + rename (AtomicFile): a bench killed mid-write never leaves
  // a truncated CSV behind.
  AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << "x";
  for (const FigureSeries& s : series) {
    out << ',' << s.name << "_avg," << s.name << "_min," << s.name << "_max";
  }
  out << '\n';
  if (series.empty()) return file.commit();
  const std::size_t rows = series.front().points.size();
  for (std::size_t i = 0; i < rows; ++i) {
    out << series.front().points[i].x;
    for (const FigureSeries& s : series) {
      if (i < s.points.size()) {
        const auto& p = s.points[i].received;
        out << ',' << p.mean << ',' << p.min << ',' << p.max;
      }
    }
    out << '\n';
  }
  return file.commit();
}

}  // namespace ag::harness
