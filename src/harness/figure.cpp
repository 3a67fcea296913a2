#include "harness/figure.h"

#include <cstdio>

#include "harness/atomic_io.h"

namespace ag::harness {

void print_figure(const std::string& title, const std::string& x_label,
                  const std::vector<FigureSeries>& series) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("%-12s", x_label.c_str());
  for (const FigureSeries& s : series) {
    std::printf(" | %s avg    min    max  goodput%%    tx/run", s.name.c_str());
  }
  std::printf("\n");
  if (series.empty() || series.front().points.empty()) return;
  const std::size_t rows = series.front().points.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%-12g", series.front().points[i].x);
    for (const FigureSeries& s : series) {
      if (i < s.points.size()) {
        const SeriesPoint& p = s.points[i];
        std::printf(" | %10.1f %6.0f %6.0f %9.2f %9llu", p.received.mean, p.received.min,
                    p.received.max, p.mean_goodput_pct,
                    static_cast<unsigned long long>(p.mean_transmissions));
      }
    }
    std::printf("\n");
  }
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
