// Table-style output for the paper's figures: one row per x value with
// the average and min–max error-bar bounds per protocol, matching what
// the paper plots ("each data point ... average of the number of packets
// received by each group member", error bars = range across receivers).
#ifndef AG_HARNESS_FIGURE_H
#define AG_HARNESS_FIGURE_H

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace ag::harness {

struct FigureSeries {
  std::string name;  // "Gossip" / "Maodv"
  std::vector<SeriesPoint> points;
};

// Renders the figure as a fixed-width table:
//   == <title> ==
//               | Gossip                     | Maodv ...
//   <x_label>   |  avg min max goodput% tx/run |  avg min max ...
//   <x>         |  ...one row per x value...
// where avg/min/max are received packets per member and tx/run is the
// mean channel transmissions per seed. Every `|` sits in the same column
// on every line.
[[nodiscard]] std::string format_figure(const std::string& title, const std::string& x_label,
                                        const std::vector<FigureSeries>& series);
// Writes format_figure() to stdout.
void print_figure(const std::string& title, const std::string& x_label,
                  const std::vector<FigureSeries>& series);

// Writes the same data as CSV (path is created/truncated); columns:
// x, <name>_avg, <name>_min, <name>_max, ... Returns false on IO failure.
bool write_figure_csv(const std::string& path, const std::vector<FigureSeries>& series);

}  // namespace ag::harness

#endif  // AG_HARNESS_FIGURE_H
