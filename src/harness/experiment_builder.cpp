#include "harness/experiment_builder.h"

#include <atomic>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <thread>
#include <utility>

#include "harness/atomic_io.h"
#include "harness/network.h"
#include "harness/protocol_registry.h"

namespace ag::harness {

namespace {

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

ExperimentBuilder::ExperimentBuilder(std::string param, std::vector<double> values,
                                     ApplyFn apply)
    : param_{std::move(param)}, values_{std::move(values)}, apply_{std::move(apply)} {}

ExperimentBuilder& ExperimentBuilder::base(ScenarioConfig config) {
  base_ = config;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::protocols(std::vector<Protocol> protocols) {
  protocols_ = std::move(protocols);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seeds(std::uint32_t n) {
  seeds_ = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::parallel(unsigned threads) {
  threads_ = threads == 0 ? std::thread::hardware_concurrency() : threads;
  if (threads_ == 0) threads_ = 1;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::name(std::string experiment_name) {
  name_ = std::move(experiment_name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::on_progress(
    std::function<void(std::size_t, std::size_t)> fn) {
  progress_ = std::move(fn);
  return *this;
}

ExperimentResult ExperimentBuilder::run() const {
  const std::vector<Protocol> protocols =
      protocols_.empty() ? std::vector<Protocol>{base_.protocol} : protocols_;
  const std::uint32_t seeds = seeds_ == 0 ? seeds_from_env() : seeds_;
  // Slot i runs protocol i / (values * seeds), value (i / seeds) % values
  // and seed i % seeds + 1. Results are aggregated in slot order whatever
  // order the workers finish in, so parallel runs match serial ones.
  const std::size_t total = protocols.size() * values_.size() * seeds;
  std::vector<stats::RunResult> results(total);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      ScenarioConfig c = base_;
      apply_(c, values_[(i / seeds) % values_.size()]);
      c.with_protocol(protocols[i / (values_.size() * seeds)]);
      c.with_seed(static_cast<std::uint32_t>(i % seeds) + 1);
      results[i] = run_scenario(c);
      const std::size_t completed = done.fetch_add(1) + 1;
      if (progress_) progress_(completed, total);
    }
  };

  const unsigned threads =
      static_cast<unsigned>(std::min<std::size_t>(threads_, total));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  ExperimentResult out;
  out.name = name_;
  out.param = param_;
  out.seeds = seeds;
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    FigureSeries series{registry.name_of(protocols[p]), {}};
    for (std::size_t v = 0; v < values_.size(); ++v) {
      const auto first = std::make_move_iterator(
          results.begin() +
          static_cast<std::ptrdiff_t>((p * values_.size() + v) * seeds));
      series.points.push_back(
          aggregate_point(values_[v], std::vector<stats::RunResult>(first, first + seeds)));
    }
    out.series.push_back(std::move(series));
  }
  return out;
}

void ExperimentResult::print(const std::string& title, const std::string& x_label) const {
  print_figure(title, x_label, series);
}

bool ExperimentResult::write_csv(const std::string& path) const {
  return write_figure_csv(path, series);
}

bool ExperimentResult::write_json(const std::string& path) const {
  AtomicFile file{path};
  if (!file.ok()) return false;
  std::ostream& out = file.stream();
  out << std::setprecision(12);
  out << "{\n";
  out << "  \"experiment\": \"" << json_escaped(name) << "\",\n";
  out << "  \"param\": \"" << json_escaped(param) << "\",\n";
  out << "  \"seeds\": " << seeds << ",\n";
  out << "  \"series\": [\n";
  for (std::size_t s = 0; s < series.size(); ++s) {
    out << "    {\"name\": \"" << json_escaped(series[s].name) << "\", \"points\": [\n";
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      const SeriesPoint& p = series[s].points[i];
      out << "      {\"x\": " << p.x;
      write_point_fields(out, p, Sink::figure);
      out << "}" << (i + 1 < series[s].points.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (s + 1 < series.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return file.commit();
}

}  // namespace ag::harness
