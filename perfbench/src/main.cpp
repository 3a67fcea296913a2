// ag_perfbench: the repo benchmark's runner.
//
//   ag_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
//   ag_perfbench --catalogue
//
// --trace 0 measures the end-to-end metrics: rounds of the whole batch on
// the worker pool until another round would pass --seconds (at least
// one), with wall_s and cpu_s the rounds' medians; setup_s is timed on
// one thread in a window before the first round and after each round.
// --trace 1 runs the batch once untraced and once traced and reports the
// per-layer metrics. Every cell's outputs are checked; the last stdout
// line is the JSON result. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "report.h"
#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool traced{false};
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ag_perfbench: %s\n"
               "usage: ag_perfbench --workload <paper_fig2|churn|scale_1000> --seed <n>\n"
               "                    --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       ag_perfbench --catalogue\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || end == text || *end != '\0') {
    usage((std::string{"bad value for "} + flag + ": " + text).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage((std::string{"missing value for "} + flag).c_str());
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = parse_u64(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      const std::uint64_t s = parse_u64(flag, value);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace must be 0 or 1");
      o.traced = t == 1;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      o.trace_out = value;
    } else {
      usage((std::string{"unknown flag "} + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// Marks failed every cell of `batch` whose result differs from the same
// cell of `reference`; returns the number of cells not ok afterwards.
std::uint64_t check_against(Batch& batch, const Batch* reference, const char* what) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    CellRun& run = batch.runs[i];
    if (run.ok && reference != nullptr && reference->runs[i].ok &&
        fingerprint(run.result) != fingerprint(reference->runs[i].result)) {
      run.ok = false;
      run.error = what;
    }
    if (!run.ok) ++failed;
  }
  return failed;
}

void report_failures(const Workload& w, const Batch& batch, const char* pass) {
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    if (batch.runs[i].ok) continue;
    std::fprintf(stderr, "FAILED %s cell %zu (%s, %s pass): %s\n", w.name.c_str(), i,
                 w.cells[i].label.c_str(), pass, batch.runs[i].error.c_str());
  }
}

bool write_trace(const std::string& path, const Batch& traced) {
  std::ofstream out{path};
  for (const CellTrace& tr : traced.traces) {
    const std::vector<std::int64_t> self = span_self_times(tr.spans);
    for (std::size_t k = 0; k < tr.spans.size(); ++k) {
      const Span& s = tr.spans[k];
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id << ", \"parent\": "
          << (s.parent == kNoParent ? std::string{"null"} : std::to_string(s.parent))
          << ", \"cell\": " << s.cell << ", \"start_ns\": " << s.at.start
          << ", \"end_ns\": " << s.at.end << ", \"self_ns\": " << self[k] << "}\n";
    }
  }
  return static_cast<bool>(out);
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed);
  const unsigned workers = worker_count(w.cells.size());
  std::printf("workload %s: %zu cells, seed %llu, %u workers, %s\n", w.name.c_str(),
              w.cells.size(), static_cast<unsigned long long>(o.seed), workers,
              o.traced ? "traced" : "untraced");
  std::printf("  why: %s\n", w.why.c_str());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest_value = 0;
  double delivery = 0.0;
  std::vector<Metric> metrics;
  if (!o.traced) {
    SetupTimer setup{w};
    setup.sample();
    std::vector<Batch> rounds;
    double elapsed = 0.0;
    do {
      rounds.push_back(run_batch(w, workers, false));
      setup.sample();
      Batch& b = rounds.back();
      failed += check_against(b, rounds.size() > 1 ? &rounds.front() : nullptr,
                              "result differs from the first round");
      attempted += b.executed;
      report_failures(w, b, "untraced");
      elapsed += b.wall_s;
      std::printf("  round %zu: wall %.3f s, cpu %.3f s\n", rounds.size(), b.wall_s,
                  b.cpu_s);
    } while (elapsed + rounds.back().wall_s <= o.seconds);
    digest_value = digest(rounds.front().runs);
    delivery = mean_delivery_ratio(rounds.front());
    metrics = end_to_end_metrics(rounds, setup.setup_s());
  } else {
    Batch untraced = run_batch(w, workers, false);
    Batch traced = run_batch(w, workers, true);
    failed += check_against(untraced, nullptr, "");
    failed += check_against(traced, &untraced, "traced result differs from untraced");
    attempted += untraced.executed + traced.executed;
    report_failures(w, untraced, "untraced");
    report_failures(w, traced, "traced");
    digest_value = digest(untraced.runs);
    delivery = mean_delivery_ratio(untraced);
    metrics = per_layer_metrics(untraced, traced, failed);
    if (!o.trace_out.empty() && !write_trace(o.trace_out, traced)) {
      std::fprintf(stderr, "ag_perfbench: could not write %s\n", o.trace_out.c_str());
    }
  }

  std::printf("digest %s %016llx (FNV-1a of every cell's exact RunResult)\n",
              w.name.c_str(), static_cast<unsigned long long>(digest_value));
  std::printf("delivery_ratio %.6f (mean over the workload's cells)\n", delivery);
  print_table(stdout, metrics);
  print_interaction_map(stdout);
  std::printf("%s\n", result_json(failed == 0, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--catalogue") == 0) {
    std::printf("%s\n", catalogue_json().c_str());
    return 0;
  }
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ag_perfbench: %s\n", e.what());
    return 1;
  }
}
