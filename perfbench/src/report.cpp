#include "report.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "measure.h"
#include "sim/event_category.h"

namespace perfbench {

namespace {

constexpr bool kHigher = true;
constexpr bool kLower = false;

MetricDef e2e(const char* name, const char* unit, bool higher, double bound) {
  return {name, unit, higher, Scope::end_to_end, bound};
}
MetricDef layer(const char* name, const char* unit, bool higher) {
  return {name, unit, higher, Scope::per_layer, 0.0};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double u(std::uint64_t v) { return static_cast<double>(v); }

// Sums over the successful cells of a batch.
struct Counts {
  std::uint64_t cells{0};
  ag::stats::NetworkTotals t;
  ag::stats::FaultStats f;
  std::uint64_t packets_sent{0};
  std::uint64_t received{0};
  std::uint64_t via_gossip{0};
  std::uint64_t replies_received{0};
  std::uint64_t replies_useful{0};
  double latency_weighted{0.0};
  double delivery_sum{0.0};
};

Counts count(const Batch& batch) {
  Counts c;
  for (const CellRun& run : batch.runs) {
    if (!run.ok) continue;
    const ag::stats::RunResult& r = run.result;
    ++c.cells;
    c.delivery_sum += r.delivery_ratio();
    c.packets_sent += r.packets_sent;
    for (const ag::stats::MemberResult& m : r.members) {
      c.received += m.received;
      c.via_gossip += m.via_gossip;
      c.replies_received += m.replies_received;
      c.replies_useful += m.replies_useful;
      c.latency_weighted += m.mean_latency_s * u(m.received);
    }
    const ag::stats::NetworkTotals& t = r.totals;
    for (std::size_t k = 0; k < ag::sim::kEventCategoryCount; ++k) {
      c.t.ev_scheduled[k] += t.ev_scheduled[k];
      c.t.ev_executed[k] += t.ev_executed[k];
    }
    c.t.sim_events += t.sim_events;
    c.t.channel_transmissions += t.channel_transmissions;
    c.t.phy_deliveries += t.phy_deliveries;
    c.t.phy_rx_elided += t.phy_rx_elided;
    c.t.phy_rx_coalesced += t.phy_rx_coalesced;
    c.t.phy_suppressed_down += t.phy_suppressed_down;
    c.t.phy_suppressed_partition += t.phy_suppressed_partition;
    c.t.mac_unicast += t.mac_unicast;
    c.t.mac_broadcast += t.mac_broadcast;
    c.t.mac_collisions += t.mac_collisions;
    c.t.mac_queue_drops += t.mac_queue_drops;
    c.t.mac_backoff_slots_credited += t.mac_backoff_slots_credited;
    c.t.mac_difs_elided += t.mac_difs_elided;
    c.t.rreq_originated += t.rreq_originated;
    c.t.rerr_sent += t.rerr_sent;
    c.t.grph_sent += t.grph_sent;
    c.t.mact_sent += t.mact_sent;
    c.t.repairs_started += t.repairs_started;
    c.t.partitions += t.partitions;
    c.t.leaders_elected += t.leaders_elected;
    c.t.data_forwarded += t.data_forwarded;
    c.t.gossip_walks += t.gossip_walks;
    c.t.gossip_replies += t.gossip_replies;
    c.t.nm_updates += t.nm_updates;
    c.t.table_probes += t.table_probes;
    c.t.pool_hits += t.pool_hits;
    c.t.pool_misses += t.pool_misses;
    c.f.crashes += r.faults.crashes;
    c.f.reboots += r.faults.reboots;
    c.f.leaves += r.faults.leaves;
    c.f.joins += r.faults.joins;
    c.f.partitions += r.faults.partitions;
    c.f.node_down_s += r.faults.node_down_s;
  }
  return c;
}

std::uint64_t sum(const std::uint64_t (&v)[ag::sim::kEventCategoryCount]) {
  std::uint64_t s = 0;
  for (const std::uint64_t x : v) s += x;
  return s;
}

double not_executed_frac(const ag::stats::NetworkTotals& t, ag::sim::EventCategory cat) {
  const std::size_t k = ag::sim::category_index(cat);
  return 1.0 - ratio(u(t.ev_executed[k]), u(t.ev_scheduled[k]));
}

}  // namespace

double mean_delivery_ratio(const Batch& batch) {
  const Counts c = count(batch);
  return ratio(c.delivery_sum, u(c.cells));
}

const std::vector<MetricDef>& catalogue() {
  // Host-time bounds are wide because the simulator is memory-bound and
  // the benchmark host shares its memory system: the identical scale_1000
  // cell ranged over 22-31 s on a 4-vCPU KVM guest (perfbench/README.md).
  static const std::vector<MetricDef> defs = {
      e2e("wall_s", "s", kLower, 0.25),
      e2e("cpu_s", "s", kLower, 0.25),
      e2e("setup_s", "s", kLower, 0.25),
      e2e("peak_rss_mb", "MiB", kLower, 0.20),
      e2e("delivery_ratio", "ratio", kHigher, 0.05),
      e2e("runs", "count", kHigher, 0.01),

      layer("runs_failed", "count", kLower),
      layer("sim.events_executed", "count", kLower),
      layer("sim.events_scheduled", "count", kLower),
      layer("sim.cancelled_frac", "ratio", kLower),
      layer("sim.executed.other", "count", kLower),
      layer("sim.executed.mac_slot", "count", kLower),
      layer("sim.executed.mac_difs", "count", kLower),
      layer("sim.executed.mac_ack_timeout", "count", kLower),
      layer("sim.executed.phy_delivery", "count", kLower),
      layer("sim.executed.router", "count", kLower),
      layer("sim.executed.fault", "count", kLower),
      layer("sim.cancelled_frac.mac_slot", "ratio", kLower),
      layer("sim.cancelled_frac.mac_ack_timeout", "ratio", kLower),
      layer("sim.pending_p50", "count", kLower),
      layer("sim.pending_max", "count", kLower),
      layer("sim.host_ns_per_event", "ns", kLower),
      layer("phy.transmissions", "count", kLower),
      layer("phy.deliveries", "count", kLower),
      layer("phy.deliveries_per_tx", "ratio", kLower),
      layer("phy.rx_elided", "count", kHigher),
      layer("phy.rx_coalesced", "count", kHigher),
      layer("phy.suppressed_down", "count", kLower),
      layer("phy.suppressed_partition", "count", kLower),
      layer("mac.unicast", "count", kLower),
      layer("mac.broadcast", "count", kLower),
      layer("mac.collisions", "count", kLower),
      layer("mac.collision_frac", "ratio", kLower),
      layer("mac.queue_drops", "count", kLower),
      layer("mac.slots_credited", "count", kLower),
      layer("mac.slots_elided", "count", kHigher),
      layer("mac.difs_elided", "count", kHigher),
      layer("aodv.rreq_originated", "count", kLower),
      layer("aodv.rerr_sent", "count", kLower),
      layer("maodv.grph_sent", "count", kLower),
      layer("maodv.mact_sent", "count", kLower),
      layer("maodv.repairs_started", "count", kLower),
      layer("maodv.partitions", "count", kLower),
      layer("maodv.leaders_elected", "count", kLower),
      layer("routing.data_forwarded", "count", kLower),
      layer("gossip.walks", "count", kLower),
      layer("gossip.replies", "count", kLower),
      layer("gossip.nm_updates", "count", kLower),
      layer("gossip.recovered", "count", kHigher),
      layer("gossip.reply_useful_frac", "ratio", kHigher),
      layer("net.table_probes", "count", kLower),
      layer("net.pool_hits", "count", kHigher),
      layer("net.pool_misses", "count", kLower),
      layer("net.pool_hit_frac", "ratio", kHigher),
      layer("faults.crashes", "count", kLower),
      layer("faults.reboots", "count", kLower),
      layer("faults.leaves", "count", kLower),
      layer("faults.joins", "count", kLower),
      layer("faults.partitions", "count", kLower),
      layer("faults.node_down_s", "s", kLower),
      layer("app.packets_sent", "count", kHigher),
      layer("app.received", "count", kHigher),
      layer("app.latency_mean_s", "s", kLower),
      layer("harness.cells", "count", kHigher),
      layer("harness.workers", "count", kHigher),
      layer("harness.cell_s_p50", "s", kLower),
      layer("harness.cell_s_tail", "s", kLower),
      layer("harness.cell_s_tail_pct", "pct", kHigher),
      layer("harness.cell_s_tail_beyond", "count", kHigher),
      layer("harness.setup_s_p50", "s", kLower),
      layer("harness.result_s", "s", kLower),
      layer("harness.pool_busy_frac", "ratio", kHigher),
      layer("phase.join_s", "s", kLower),
      layer("phase.warmup_s", "s", kLower),
      layer("phase.traffic_s", "s", kLower),
      layer("phase.drain_s", "s", kLower),
      layer("routing.rx_calls", "count", kLower),
      layer("routing.rx_self_s", "s", kLower),
      layer("routing.unicast_failed_calls", "count", kLower),
      layer("routing.unicast_failed_s", "s", kLower),
      layer("gossip.observer_calls", "count", kLower),
      layer("gossip.observer_s", "s", kLower),
      layer("rest.self_s", "s", kLower),
      layer("mem.rss_after_setup_mb", "MiB", kLower),
      layer("mem.rss_growth_mb", "MiB", kLower),
      layer("trace.overhead_frac", "ratio", kLower),
  };
  return defs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char ch) {
    return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char ch) {
    return alnum(ch) || ch == '_' || ch == '.' || ch == '-';
  });
}

void Report::set(std::string_view name, double value) {
  const auto& defs = catalogue();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const MetricDef& d) {
    return d.scope == scope_ && name == d.name;
  });
  if (def == defs.end()) {
    throw std::logic_error("metric " + std::string{name} + " is not in the catalogue");
  }
  for (const Metric& m : metrics_) {
    if (m.def == &*def) throw std::logic_error("metric " + std::string{name} + " set twice");
  }
  // NaN or infinity cannot be printed as JSON; no metric here should be one.
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + std::string{name} + " is not finite");
  }
  metrics_.push_back({&*def, value});
}

std::vector<Metric> Report::finish() const {
  std::vector<Metric> out;
  for (const MetricDef& d : catalogue()) {
    if (d.scope != scope_) continue;
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.def == &d; });
    if (it == metrics_.end()) {
      throw std::logic_error(std::string{"metric "} + d.name + " was never set");
    }
    out.push_back(*it);
  }
  return out;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Batch>& rounds, double setup_s) {
  std::vector<double> walls;
  std::vector<double> cpus;
  std::size_t executed = 0;
  for (const Batch& b : rounds) {
    walls.push_back(b.wall_s);
    cpus.push_back(b.cpu_s);
    executed += b.executed;
  }
  Report r{Scope::end_to_end};
  r.set("wall_s", median(walls));
  r.set("cpu_s", median(cpus));
  r.set("setup_s", setup_s);
  r.set("peak_rss_mb", peak_rss_mb());
  r.set("delivery_ratio", mean_delivery_ratio(rounds.front()));
  r.set("runs", ratio(u(executed), u(rounds.size())));
  return r.finish();
}

std::vector<Metric> per_layer_metrics(const Batch& untraced, const Batch& traced,
                                      std::uint64_t failed) {
  using ag::sim::EventCategory;
  const Counts c = count(untraced);
  const ag::stats::NetworkTotals& t = c.t;
  Report r{Scope::per_layer};
  r.set("runs_failed", u(failed));

  const std::uint64_t scheduled = sum(t.ev_scheduled);
  r.set("sim.events_executed", u(t.sim_events));
  r.set("sim.events_scheduled", u(scheduled));
  r.set("sim.cancelled_frac", 1.0 - ratio(u(sum(t.ev_executed)), u(scheduled)));
  for (std::size_t k = 0; k < ag::sim::kEventCategoryCount; ++k) {
    if (k == ag::sim::category_index(EventCategory::dtn)) continue;
    r.set(std::string{"sim.executed."} + ag::sim::event_category_name(k),
          u(t.ev_executed[k]));
  }
  r.set("sim.cancelled_frac.mac_slot", not_executed_frac(t, EventCategory::mac_slot));
  r.set("sim.cancelled_frac.mac_ack_timeout",
        not_executed_frac(t, EventCategory::mac_ack_timeout));

  r.set("phy.transmissions", u(t.channel_transmissions));
  r.set("phy.deliveries", u(t.phy_deliveries));
  r.set("phy.deliveries_per_tx", ratio(u(t.phy_deliveries), u(t.channel_transmissions)));
  r.set("phy.rx_elided", u(t.phy_rx_elided));
  r.set("phy.rx_coalesced", u(t.phy_rx_coalesced));
  r.set("phy.suppressed_down", u(t.phy_suppressed_down));
  r.set("phy.suppressed_partition", u(t.phy_suppressed_partition));

  r.set("mac.unicast", u(t.mac_unicast));
  r.set("mac.broadcast", u(t.mac_broadcast));
  r.set("mac.collisions", u(t.mac_collisions));
  r.set("mac.collision_frac", ratio(u(t.mac_collisions), u(t.phy_deliveries)));
  r.set("mac.queue_drops", u(t.mac_queue_drops));
  r.set("mac.slots_credited", u(t.mac_backoff_slots_credited));
  const std::uint64_t ticked = t.ev_executed[ag::sim::category_index(EventCategory::mac_slot)];
  r.set("mac.slots_elided",
        u(t.mac_backoff_slots_credited > ticked ? t.mac_backoff_slots_credited - ticked : 0));
  r.set("mac.difs_elided", u(t.mac_difs_elided));

  r.set("aodv.rreq_originated", u(t.rreq_originated));
  r.set("aodv.rerr_sent", u(t.rerr_sent));
  r.set("maodv.grph_sent", u(t.grph_sent));
  r.set("maodv.mact_sent", u(t.mact_sent));
  r.set("maodv.repairs_started", u(t.repairs_started));
  r.set("maodv.partitions", u(t.partitions));
  r.set("maodv.leaders_elected", u(t.leaders_elected));
  r.set("routing.data_forwarded", u(t.data_forwarded));

  r.set("gossip.walks", u(t.gossip_walks));
  r.set("gossip.replies", u(t.gossip_replies));
  r.set("gossip.nm_updates", u(t.nm_updates));
  r.set("gossip.recovered", u(c.via_gossip));
  r.set("gossip.reply_useful_frac", ratio(u(c.replies_useful), u(c.replies_received)));

  r.set("net.table_probes", u(t.table_probes));
  r.set("net.pool_hits", u(t.pool_hits));
  r.set("net.pool_misses", u(t.pool_misses));
  r.set("net.pool_hit_frac", ratio(u(t.pool_hits), u(t.pool_hits + t.pool_misses)));

  r.set("faults.crashes", u(c.f.crashes));
  r.set("faults.reboots", u(c.f.reboots));
  r.set("faults.leaves", u(c.f.leaves));
  r.set("faults.joins", u(c.f.joins));
  r.set("faults.partitions", u(c.f.partitions));
  r.set("faults.node_down_s", c.f.node_down_s);

  r.set("app.packets_sent", u(c.packets_sent));
  r.set("app.received", u(c.received));
  r.set("app.latency_mean_s", ratio(c.latency_weighted, u(c.received)));

  // Host times, depths and seam folds of the traced batch.
  std::vector<double> cell_s;
  std::vector<double> setup_s;
  std::vector<double> pending;
  double result_s = 0.0;
  double busy_s = 0.0;
  std::array<double, kPhaseCount> phase_s{};
  double rest_s = 0.0;
  std::array<SeamFold::Totals, kSeamCount> seams{};
  double rss_after_setup = 0.0;
  double rss_growth = 0.0;
  for (std::size_t i = 0; i < traced.runs.size(); ++i) {
    const CellRun& run = traced.runs[i];
    const CellTrace& tr = traced.traces[i];
    cell_s.push_back(run.cell_s);
    setup_s.push_back(run.setup_s);
    result_s += run.result_s;
    busy_s += run.cell_s;
    pending.insert(pending.end(), tr.pending.begin(), tr.pending.end());
    for (std::size_t k = 0; k < kPhaseCount; ++k) {
      phase_s[k] += tr.phase_s[k];
      rest_s += tr.phase_self_s[k];
    }
    for (std::size_t s = 0; s < kSeamCount; ++s) {
      seams[s].calls += tr.seams[s].calls;
      seams[s].self_ns += tr.seams[s].self_ns;
    }
    rss_after_setup = std::max(rss_after_setup, tr.rss_after_setup_mb);
    rss_growth = std::max(rss_growth, tr.rss_growth_mb);
  }
  double run_s = 0.0;
  for (std::size_t k = 0; k < kPhaseCount; ++k) run_s += phase_s[k];
  r.set("sim.pending_p50", median(pending));
  r.set("sim.pending_max",
        pending.empty() ? 0.0 : *std::max_element(pending.begin(), pending.end()));
  r.set("sim.host_ns_per_event", ratio(run_s * 1e9, u(t.sim_events)));

  const TailPoint tail = tail_of(cell_s);
  r.set("harness.cells", u(traced.executed));
  r.set("harness.workers", traced.workers);
  r.set("harness.cell_s_p50", median(cell_s));
  r.set("harness.cell_s_tail", tail.value);
  r.set("harness.cell_s_tail_pct", tail.pct);
  r.set("harness.cell_s_tail_beyond", u(tail.beyond));
  r.set("harness.setup_s_p50", median(setup_s));
  r.set("harness.result_s", result_s);
  r.set("harness.pool_busy_frac", ratio(busy_s, traced.workers * traced.wall_s));

  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    r.set(std::string{"phase."} + kPhaseNames[k] + "_s", phase_s[k]);
  }
  const auto seam = [&](Seam s) { return seams[static_cast<std::size_t>(s)]; };
  r.set("routing.rx_calls", u(seam(Seam::routing_rx).calls));
  r.set("routing.rx_self_s", ns_to_s(seam(Seam::routing_rx).self_ns));
  r.set("routing.unicast_failed_calls", u(seam(Seam::routing_unicast_failed).calls));
  r.set("routing.unicast_failed_s", ns_to_s(seam(Seam::routing_unicast_failed).self_ns));
  r.set("gossip.observer_calls", u(seam(Seam::gossip_observer).calls));
  r.set("gossip.observer_s", ns_to_s(seam(Seam::gossip_observer).self_ns));
  r.set("rest.self_s", rest_s);
  r.set("mem.rss_after_setup_mb", rss_after_setup);
  r.set("mem.rss_growth_mb", rss_growth);
  r.set("trace.overhead_frac", ratio(traced.wall_s, untraced.wall_s) - 1.0);
  return r.finish();
}

void print_table(std::FILE* out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(out, "  %-36s %18.6f %-6s (%s is better)\n", m.def->name, m.value,
                 m.def->unit, m.def->higher_is_better ? "higher" : "lower");
  }
}

void print_interaction_map(std::FILE* out) {
  std::fputs(
      "interaction map (per-layer metric -> end-to-end metric it should move;\n"
      "  shares are of traced cell time in perfbench/baseline.json):\n"
      "  sim.cancelled_frac.mac_slot, sim.events_scheduled, sim.host_ns_per_event down\n"
      "    -> wall_s, cpu_s down, most on scale_1000 (~6000 pending, 53% of scheduled\n"
      "    events cancelled); less on paper_fig2 (~240 pending, 26% cancelled)\n"
      "  mem.rss_growth_mb down -> peak_rss_mb (maybe setup_s) down on scale_1000;\n"
      "    with net.table_probes unchanged, nothing on the 40-node workloads\n"
      "  routing.rx_self_s down -> cpu_s down on every workload, up to its share:\n"
      "    ~17% paper_fig2, ~19% churn, ~24% scale_1000\n"
      "  gossip.observer_s down -> cpu_s down by at most ~2% on paper_fig2 and ~3% on\n"
      "    churn, inside the noise; nothing on scale_1000 (<1%)\n"
      "  harness.pool_busy_frac up -> wall_s (not cpu_s) down on paper_fig2, churn,\n"
      "    by at most 1 - busy (2-6%); cannot move the single-cell scale_1000\n"
      "  faults.* move only on churn\n"
      "  every count and delivery_ratio stay fixed under a pure performance change\n",
      out);
}

namespace {

void append_number(std::string& s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += i == 0 ? "\"" : ", \"";
    s += metrics[i].def->name;
    s += "\": {\"value\": ";
    append_number(s, metrics[i].value);
    s += ", \"unit\": \"";
    s += metrics[i].def->unit;
    s += "\"}";
  }
  s += "}}";
  return s;
}

std::string catalogue_json() {
  std::string s = "{\"end_to_end\": [";
  std::string layers = "\"per_layer\": [";
  bool first_e2e = true;
  bool first_layer = true;
  for (const MetricDef& d : catalogue()) {
    const bool e = d.scope == Scope::end_to_end;
    std::string& out = e ? s : layers;
    bool& first = e ? first_e2e : first_layer;
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": \"" + std::string{d.name} + "\", \"unit\": \"" + d.unit +
           "\", \"better\": \"" + (d.higher_is_better ? "higher" : "lower") + "\"";
    if (e) {
      out += ", \"bound\": ";
      append_number(out, d.bound);
    }
    out += "}";
  }
  return s + "\n],\n" + layers + "\n]}";
}

}  // namespace perfbench
