#include "runner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness/network.h"
#include "measure.h"

namespace perfbench {

namespace {

using ag::harness::Network;
using ag::sim::SimTime;

void run_untraced(const Cell& cell, CellRun& out) {
  const auto net = std::make_unique<Network>(cell.config);
  net->run_until(cell.config.duration);
  out.result = net->result();
}

// Phase ends in simulated time, clamped to be monotone within the run.
std::array<SimTime, kPhaseCount> phase_ends(const ag::harness::ScenarioConfig& c) {
  const SimTime marks[kPhaseCount] = {SimTime::zero() + c.join_spread, c.workload.start,
                                      c.workload.end, c.duration};
  std::array<SimTime, kPhaseCount> ends{};
  SimTime at = SimTime::zero();
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    at = std::max(at, std::min(marks[k], c.duration));
    ends[k] = at;
  }
  ends[kPhaseCount - 1] = c.duration;
  return ends;
}

void run_traced(const Cell& cell, CellRun& out, CellTrace& tr) {
  const ag::harness::ScenarioConfig& cfg = cell.config;
  // Span ids: 8 per cell — the cell itself, setup, four phases, result.
  const std::size_t base = cell.id * 8;
  const auto record = [&](std::string name, std::size_t k, Interval at,
                          std::int64_t folded) {
    tr.spans.push_back(
        {std::move(name), base + k, k == 0 ? kNoParent : base, cell.id, at, folded});
  };

  // The wrappers outlive the network that calls them.
  SeamFold fold;
  std::vector<std::unique_ptr<RxSeam>> rx;
  std::vector<std::unique_ptr<ObserverSeam>> observers;

  const std::int64_t t0 = now_ns();
  const auto net = std::make_unique<Network>(cfg);
  const std::int64_t t1 = now_ns();
  record("setup", 1, {t0, t1}, 0);

  for (std::size_t i = 0; i < net->node_count(); ++i) {
    auto* inner = dynamic_cast<ag::mac::MacListener*>(&net->router(i));
    if (inner == nullptr) throw std::runtime_error("router is not a MAC listener");
    rx.push_back(std::make_unique<RxSeam>(*inner, fold));
    net->mac(i).set_listener(rx.back().get());
    observers.push_back(std::make_unique<ObserverSeam>(net->agent(i), fold));
    net->router(i).set_observer(observers.back().get());
  }
  tr.rss_after_setup_mb = rss_mb();
  double rss_max = tr.rss_after_setup_mb;

  SimTime at = SimTime::zero();
  const std::array<SimTime, kPhaseCount> ends = phase_ends(cfg);
  constexpr std::int64_t kSecondUs = 1'000'000;
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    const std::int64_t p0 = now_ns();
    const std::int64_t folded0 = fold.top_level_ns();
    while (at < ends[k]) {
      const SimTime next =
          std::min(ends[k], SimTime::us((at.count_us() / kSecondUs + 1) * kSecondUs));
      net->run_until(next);
      at = next;
      tr.pending.push_back(static_cast<double>(net->simulator().pending_events()));
    }
    const std::int64_t p1 = now_ns();
    const std::int64_t folded = fold.top_level_ns() - folded0;
    tr.phase_s[k] = ns_to_s(p1 - p0);
    tr.phase_self_s[k] = ns_to_s(p1 - p0 - folded);
    record(std::string{"phase."} + kPhaseNames[k], 2 + k, {p0, p1}, folded);
    rss_max = std::max(rss_max, rss_mb());
  }
  tr.rss_growth_mb = rss_max - tr.rss_after_setup_mb;

  const std::int64_t r0 = now_ns();
  out.result = net->result();
  const std::int64_t r1 = now_ns();
  record("result", 6, {r0, r1}, 0);
  record("cell", 0, {t0, r1}, 0);
  for (std::size_t s = 0; s < kSeamCount; ++s) tr.seams[s] = fold.totals(static_cast<Seam>(s));

  out.setup_s = ns_to_s(t1 - t0);
  out.result_s = ns_to_s(r1 - r0);
  out.cell_s = ns_to_s(r1 - t0);
}

void run_cell(const Cell& cell, CellRun& out, CellTrace* trace) {
  try {
    if (trace != nullptr) {
      run_traced(cell, out, *trace);
    } else {
      run_untraced(cell, out);
    }
    out.error = invariant_violation(out.result);
    out.ok = out.error.empty();
  } catch (const std::exception& e) {
    out.error = std::string{"threw: "} + e.what();
  } catch (...) {
    out.error = "threw a non-standard exception";
  }
}

}  // namespace

unsigned worker_count(std::size_t cells) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min({hw, std::size_t{4}, std::max<std::size_t>(cells, 1)}));
}

Batch run_batch(const Workload& workload, unsigned workers, bool traced) {
  const std::size_t n = workload.cells.size();
  Batch b;
  b.workers = workers;
  b.runs.resize(n);
  if (traced) b.traces.resize(n);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> executed{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      run_cell(workload.cells[i], b.runs[i], traced ? &b.traces[i] : nullptr);
      executed.fetch_add(1);
    }
  };
  const double cpu0 = process_cpu_s();
  const std::int64_t wall0 = now_ns();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < workers; ++t) pool.emplace_back(work);
    work();
  }
  b.wall_s = ns_to_s(now_ns() - wall0);
  b.cpu_s = process_cpu_s() - cpu0;
  b.executed = executed.load();
  return b;
}

SetupTimer::SetupTimer(const Workload& workload)
    : workload_{&workload}, times_(workload.cells.size()) {}

void SetupTimer::sample() {
  // Pass-major order spreads each cell's samples over the whole window.
  const std::int64_t start = now_ns();
  for (int pass = 0;
       pass < kSetupMinPasses || ns_to_s(now_ns() - start) < kSetupWindowS; ++pass) {
    for (std::size_t i = 0; i < workload_->cells.size(); ++i) {
      const std::int64_t t0 = now_ns();
      auto net = std::make_unique<Network>(workload_->cells[i].config);
      times_[i].push_back(ns_to_s(now_ns() - t0));
    }
  }
}

double SetupTimer::setup_s() const {
  double total = 0.0;
  for (const std::vector<double>& t : times_) total += median(t);
  return total;
}

std::vector<std::uint64_t> fingerprint(const ag::stats::RunResult& r) {
  std::vector<std::uint64_t> w;
  const auto f64 = [&w](double v) { w.push_back(std::bit_cast<std::uint64_t>(v)); };
  w.push_back(r.seed);
  w.push_back(r.packets_sent);
  w.push_back(r.members.size());
  for (const ag::stats::MemberResult& m : r.members) {
    w.insert(w.end(), {m.node.value(), m.received, m.via_gossip, m.replies_received,
                       m.replies_useful, m.eligible});
    f64(m.mean_latency_s);
  }
  const ag::stats::NetworkTotals& t = r.totals;
  w.insert(w.end(), {t.channel_transmissions, t.phy_deliveries, t.phy_suppressed_down,
                     t.phy_suppressed_partition, t.sim_events});
  w.insert(w.end(), std::begin(t.ev_scheduled), std::end(t.ev_scheduled));
  w.insert(w.end(), std::begin(t.ev_executed), std::end(t.ev_executed));
  w.insert(w.end(),
           {t.mac_backoff_slots_credited, t.mac_difs_elided, t.phy_rx_elided,
            t.phy_rx_coalesced, t.table_probes, t.pool_hits, t.pool_misses, t.mac_unicast,
            t.mac_broadcast, t.mac_collisions, t.mac_queue_drops, t.rreq_originated,
            t.rerr_sent, t.grph_sent, t.mact_sent, t.data_forwarded, t.gossip_walks,
            t.gossip_replies, t.nm_updates, t.repairs_started, t.partitions,
            t.leaders_elected, t.custody_stored, t.custody_evicted_ttl,
            t.custody_evicted_capacity, t.custody_offers, t.custody_offers_failed,
            t.custody_accepted, t.custody_duplicates, t.adversary_nodes,
            t.adversary_absorbed, t.adversary_poisoned, t.trust_isolations,
            t.trust_false_positives, t.trust_filtered, t.sessions.sessions,
            t.sessions.users_served, t.sessions.user_eligible,
            std::uint64_t{t.adversary_active}, std::uint64_t{t.dtn_active}});
  f64(t.trust_detection_latency_s);
  const ag::stats::FaultStats& f = r.faults;
  w.insert(w.end(), {f.crashes, f.reboots, f.leaves, f.joins, f.partitions, f.heals});
  f64(f.node_down_s);
  f64(f.partitioned_s);
  return w;
}

std::uint64_t digest(const std::vector<CellRun>& runs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const CellRun& run : runs) {
    if (!run.ok) continue;
    for (const std::uint64_t v : fingerprint(run.result)) mix(v);
  }
  return h;
}

std::string invariant_violation(const ag::stats::RunResult& r) {
  for (const ag::stats::MemberResult& m : r.members) {
    const std::string who = "member " + std::to_string(m.node.value());
    if (m.received > r.packets_sent) {
      return who + " received " + std::to_string(m.received) + " of " +
             std::to_string(r.packets_sent) + " packets sent";
    }
    if (m.via_gossip > m.received) {
      return who + " has via_gossip " + std::to_string(m.via_gossip) + " > received " +
             std::to_string(m.received);
    }
  }
  const double ratio = r.delivery_ratio();
  if (!(ratio >= 0.0 && ratio <= 1.0)) {
    return "delivery ratio " + std::to_string(ratio) + " outside [0, 1]";
  }
  return {};
}

}  // namespace perfbench
