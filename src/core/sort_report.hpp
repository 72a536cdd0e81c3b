// SortReport: the flight recorder for one distributed sort run. One JSON
// document per run covering everything the paper's evaluation reports —
// phase timings (Fig. 7), per-rank load balance (Table II / Fig. 10),
// splitter quality vs the ideal p-quantiles, network/fault/retransmit
// counters from the fabric and the reliable-delivery layer, buffer-pool hit
// rates, and the full merged metrics registry.
//
// The schema is checked in at tools/report_schema.json and validated by
// tools/validate_report.py (scripts/check.sh telemetry).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/config.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/time.hpp"

namespace pgxd::core {

// Identifies the run; callers fill this in (the sorter does not know what
// workload fed it).
struct SortRunInfo {
  std::string engine = "pgxd";
  std::string distribution = "unknown";
  std::uint64_t n = 0;
  std::size_t machines = 0;
  std::uint64_t seed = 0;
};

// One paper step, aggregated across ranks.
struct PhaseReport {
  std::string name;    // Fig. 7 display name (step_name)
  std::string metric;  // metric suffix (step_metric_suffix)
  sim::SimTime min_ns = 0;
  sim::SimTime max_ns = 0;
  double mean_ns = 0.0;
};

// Per-rank load summary for one unit (items or bytes).
struct LoadReport {
  std::uint64_t total = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  // Table II's balance figure; min is clamped to 1 so an empty partition
  // reads as "maximally imbalanced" rather than dividing by zero.
  double max_over_min = 0.0;
  double imbalance = 0.0;  // max / ideal, 1.0 == perfect
};

// Splitter quality: how far each realized partition boundary lands from the
// ideal i*N/m quantile, as a fraction of N, over the m final members in
// member order (m == p unless a recovery shrank the membership).
struct SplitterReport {
  std::vector<double> boundary_error;  // i = 1 .. m-1
  double max_error = 0.0;
  double mean_error = 0.0;
};

// Partitioning-scheme outcome: which strategy produced the splitters and
// what it cost / certified. Always emitted; the one-level baseline reads as
// rounds=1, groups=1, probe_keys=0, level1_items=0.
struct PartitionReport {
  std::string scheme = "one-level-sample";
  std::uint64_t rounds = 1;
  double epsilon_target = 0.0;
  double achieved_epsilon = 0.0;
  std::uint64_t groups = 1;
  std::uint64_t sample_keys = 0;
  std::uint64_t probe_keys = 0;
  std::uint64_t level1_items = 0;
};

struct NetworkReport {
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;      // injected fabric faults
  std::uint64_t messages_duplicated = 0;   // injected fabric faults
  std::uint64_t retransmits = 0;           // reliable-delivery resends
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_suppressed = 0; // reliable layer
  std::uint64_t duplicate_chunks = 0;      // application-level discards
};

struct PoolReport {
  std::uint64_t leases = 0;
  std::uint64_t reuses = 0;
  std::uint64_t fresh_allocs = 0;
  std::uint64_t returns = 0;
  double hit_rate = 0.0;  // reuses / leases
};

// Crash-recovery outcome of the run. Always emitted: a clean run reads as
// enabled=false with all-zero counters and final_members == machines, so
// report consumers never branch on the section's presence.
struct RecoveryReport {
  bool enabled = false;
  std::uint64_t recoveries = 0;
  std::int64_t final_attempt = 0;
  std::uint64_t final_members = 0;
  std::uint64_t regenerated_shards = 0;
  std::uint64_t abort_broadcasts = 0;
  std::uint64_t detector_suspicions = 0;
  std::uint64_t detector_heartbeats_sent = 0;
  sim::SimTime wasted_work_ns = 0;
  sim::SimTime time_to_recover_max_ns = 0;
  double time_to_recover_mean_ns = 0.0;
};

// Runtime wait-for-graph summary: how often ranks blocked, what they
// blocked on, and how many incremental deadlock checks ran. A run that
// reaches the report by definition did not deadlock, so `deadlocks` is
// zero here; the counter exists because the same Stats struct feeds the
// abort diagnostic when a run does deadlock.
struct WaitReport {
  std::uint64_t mailbox_waits = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t pool_waits = 0;    // annotation edges under pool backpressure
  std::uint64_t holds_added = 0;
  std::uint64_t deadlock_checks = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t max_blocked = 0;   // peak simultaneously-blocked ranks
};

struct SortReport {
  SortRunInfo run;
  sim::SimTime total_time_ns = 0;
  std::vector<PhaseReport> phases;  // the six Sec. IV steps, in order
  LoadReport items;
  LoadReport bytes;
  SplitterReport splitters;
  PartitionReport partition;
  NetworkReport network;
  PoolReport pool;
  RecoveryReport recovery;
  WaitReport waits;
  // Causal telemetry. Always emitted like recovery: a run without a trace
  // reads as critical_path.computed == false and an empty timeseries, so
  // the schema stays stable. Filled by the caller that owns the trace and
  // sampler (pgxd_sim, benches) after build_sort_report.
  obs::CriticalPathReport critical_path;
  obs::TimeSeriesDump timeseries;
  obs::MetricsRegistry metrics;  // cluster-wide merge of per-rank registries

  std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.key("run");
    w.begin_object();
    w.kv("engine", std::string_view(run.engine));
    w.kv("distribution", std::string_view(run.distribution));
    w.kv("n", run.n);
    w.kv("machines", static_cast<std::uint64_t>(run.machines));
    w.kv("seed", run.seed);
    w.end_object();
    w.kv("total_time_ns", static_cast<std::int64_t>(total_time_ns));
    w.key("phases");
    w.begin_array();
    for (const PhaseReport& p : phases) {
      w.begin_object();
      w.kv("name", std::string_view(p.name));
      w.kv("metric", std::string_view(p.metric));
      w.kv("min_ns", static_cast<std::int64_t>(p.min_ns));
      w.kv("max_ns", static_cast<std::int64_t>(p.max_ns));
      w.kv("mean_ns", p.mean_ns);
      w.end_object();
    }
    w.end_array();
    w.key("load");
    w.begin_object();
    auto write_load = [&w](const char* k, const LoadReport& l) {
      w.key(k);
      w.begin_object();
      w.kv("total", l.total);
      w.kv("min", l.min);
      w.kv("max", l.max);
      w.kv("mean", l.mean);
      w.kv("max_over_min", l.max_over_min);
      w.kv("imbalance", l.imbalance);
      w.end_object();
    };
    write_load("items", items);
    write_load("bytes", bytes);
    w.end_object();
    w.key("splitters");
    w.begin_object();
    w.key("boundary_error");
    w.begin_array();
    for (double e : splitters.boundary_error) w.value(e);
    w.end_array();
    w.kv("max_error", splitters.max_error);
    w.kv("mean_error", splitters.mean_error);
    w.end_object();
    w.key("partition");
    w.begin_object();
    w.kv("scheme", std::string_view(partition.scheme));
    w.kv("rounds", partition.rounds);
    w.kv("epsilon_target", partition.epsilon_target);
    w.kv("achieved_epsilon", partition.achieved_epsilon);
    w.kv("groups", partition.groups);
    w.kv("sample_keys", partition.sample_keys);
    w.kv("probe_keys", partition.probe_keys);
    w.kv("level1_items", partition.level1_items);
    w.end_object();
    w.key("network");
    w.begin_object();
    w.kv("bytes_sent", network.bytes_sent);
    w.kv("messages_sent", network.messages_sent);
    w.kv("messages_dropped", network.messages_dropped);
    w.kv("messages_duplicated", network.messages_duplicated);
    w.kv("retransmits", network.retransmits);
    w.kv("acks_received", network.acks_received);
    w.kv("duplicates_suppressed", network.duplicates_suppressed);
    w.kv("duplicate_chunks", network.duplicate_chunks);
    w.end_object();
    w.key("pool");
    w.begin_object();
    w.kv("leases", pool.leases);
    w.kv("reuses", pool.reuses);
    w.kv("fresh_allocs", pool.fresh_allocs);
    w.kv("returns", pool.returns);
    w.kv("hit_rate", pool.hit_rate);
    w.end_object();
    w.key("recovery");
    w.begin_object();
    w.kv("enabled", recovery.enabled);
    w.kv("recoveries", recovery.recoveries);
    w.kv("final_attempt", recovery.final_attempt);
    w.kv("final_members", recovery.final_members);
    w.kv("regenerated_shards", recovery.regenerated_shards);
    w.kv("abort_broadcasts", recovery.abort_broadcasts);
    w.kv("detector_suspicions", recovery.detector_suspicions);
    w.kv("detector_heartbeats_sent", recovery.detector_heartbeats_sent);
    w.kv("wasted_work_ns", static_cast<std::int64_t>(recovery.wasted_work_ns));
    w.kv("time_to_recover_max_ns",
         static_cast<std::int64_t>(recovery.time_to_recover_max_ns));
    w.kv("time_to_recover_mean_ns", recovery.time_to_recover_mean_ns);
    w.end_object();
    w.key("waits");
    w.begin_object();
    w.kv("mailbox_waits", waits.mailbox_waits);
    w.kv("barrier_waits", waits.barrier_waits);
    w.kv("pool_waits", waits.pool_waits);
    w.kv("holds_added", waits.holds_added);
    w.kv("deadlock_checks", waits.deadlock_checks);
    w.kv("deadlocks", waits.deadlocks);
    w.kv("max_blocked", waits.max_blocked);
    w.end_object();
    w.key("critical_path");
    critical_path.write_json(w);
    w.key("timeseries");
    timeseries.write_json(w);
    w.key("metrics");
    metrics.write_json(w);
    w.end_object();
    return w.str();
  }
};

// Builds the report from a finished sorter (duck-typed so this header does
// not need the full DistributedSorter definition: any engine exposing
// stats()/partitions()/final_members()/pool_stats()/merged_metrics()/
// config() plus the kStoredBytesPerItem constant works). Phase timings,
// load balance, and splitter error come from the always-on SortStats; the
// network section and the metrics registry are only populated when the run
// had SortConfig::telemetry enabled (they read as zero/empty otherwise).
template <typename Sorter>
SortReport build_sort_report(const Sorter& sorter, SortRunInfo run) {
  SortReport rep;
  rep.run = std::move(run);
  const auto& stats = sorter.stats();
  rep.total_time_ns = stats.total_time;
  const std::size_t p = stats.machines.size();
  if (rep.run.machines == 0) rep.run.machines = p;

  for (std::size_t i = 0; i < kStepCount; ++i) {
    const Step s = static_cast<Step>(i);
    PhaseReport ph;
    ph.name = step_name(s);
    ph.metric = step_metric_suffix(s);
    ph.min_ns = p ? stats.machines[0].steps[s] : 0;
    double sum = 0.0;
    for (const auto& ms : stats.machines) {
      const sim::SimTime t = ms.steps[s];
      if (t < ph.min_ns) ph.min_ns = t;
      if (t > ph.max_ns) ph.max_ns = t;
      sum += static_cast<double>(t);
    }
    ph.mean_ns = p ? sum / static_cast<double>(p) : 0.0;
    rep.phases.push_back(std::move(ph));
  }

  // Load balance and splitter error are judged against the membership that
  // actually held data: after a recovery onto survivors, a dead rank's
  // empty partition would otherwise drag the mean below every live rank's
  // share and shift every later boundary's ideal.
  const auto& members = sorter.final_members();
  const std::size_t holders = members.size();
  auto fill_load = [holders](LoadReport& l, std::uint64_t total,
                             std::uint64_t mn, std::uint64_t mx,
                             double ideal_denominator) {
    l.total = total;
    l.min = mn;
    l.max = mx;
    l.mean = holders ? static_cast<double>(total) /
                           static_cast<double>(holders)
                     : 0.0;
    l.max_over_min =
        static_cast<double>(mx) / static_cast<double>(mn > 0 ? mn : 1);
    l.imbalance = ideal_denominator > 0.0
                      ? static_cast<double>(mx) / ideal_denominator
                      : 0.0;
  };
  const auto& bal = stats.balance;
  const double ideal_items =
      holders ? static_cast<double>(bal.total) / static_cast<double>(holders)
              : 0.0;
  fill_load(rep.items, bal.total, bal.min_size, bal.max_size, ideal_items);
  constexpr std::uint64_t kBpi = Sorter::kStoredBytesPerItem;
  fill_load(rep.bytes, bal.total * kBpi, bal.min_size * kBpi,
            bal.max_size * kBpi, ideal_items * static_cast<double>(kBpi));

  const auto& parts = sorter.partitions();
  const double total_n = static_cast<double>(bal.total);
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i + 1 < holders; ++i) {
    prefix += parts[members[i]].size();
    const double ideal =
        total_n * static_cast<double>(i + 1) / static_cast<double>(holders);
    const double err =
        total_n > 0.0
            ? std::fabs(static_cast<double>(prefix) - ideal) / total_n
            : 0.0;
    rep.splitters.boundary_error.push_back(err);
    if (err > rep.splitters.max_error) rep.splitters.max_error = err;
    rep.splitters.mean_error += err;
  }
  if (!rep.splitters.boundary_error.empty())
    rep.splitters.mean_error /=
        static_cast<double>(rep.splitters.boundary_error.size());

  const auto& pt = stats.partition;
  rep.partition.scheme = partition_scheme_name(pt.scheme);
  rep.partition.rounds = pt.rounds;
  rep.partition.epsilon_target = pt.epsilon_target;
  rep.partition.achieved_epsilon = pt.achieved_epsilon;
  rep.partition.groups = pt.groups;
  rep.partition.sample_keys = pt.sample_keys;
  rep.partition.probe_keys = pt.probe_keys;
  rep.partition.level1_items = pt.level1_items;

  rep.metrics = sorter.merged_metrics();
  const obs::MetricsRegistry& m = rep.metrics;
  rep.network.bytes_sent = m.counter_value("net.nic.bytes_sent");
  rep.network.messages_sent = m.counter_value("net.nic.messages_sent");
  rep.network.messages_dropped = m.counter_value("net.nic.messages_dropped");
  rep.network.messages_duplicated =
      m.counter_value("net.nic.messages_duplicated");
  rep.network.retransmits = m.counter_value("comm.reliable.retransmits");
  rep.network.acks_received = m.counter_value("comm.reliable.acks_received");
  rep.network.duplicates_suppressed =
      m.counter_value("comm.reliable.duplicates_suppressed");
  rep.network.duplicate_chunks =
      m.counter_value("sort.exchange.duplicate_chunks");

  const auto& rc = stats.recovery;
  rep.recovery.enabled = sorter.config().recovery.enabled;
  rep.recovery.recoveries = rc.recoveries;
  rep.recovery.final_attempt = rc.final_attempt;
  rep.recovery.final_members = holders;
  rep.recovery.regenerated_shards = rc.regenerated_shards;
  rep.recovery.abort_broadcasts = rc.abort_broadcasts;
  rep.recovery.detector_suspicions = m.counter_value("detector.suspicions");
  rep.recovery.detector_heartbeats_sent =
      m.counter_value("detector.heartbeats_sent");
  rep.recovery.wasted_work_ns = rc.wasted_work_ns;
  rep.recovery.time_to_recover_max_ns = rc.time_to_recover_max_ns;
  rep.recovery.time_to_recover_mean_ns =
      rc.recoveries ? static_cast<double>(rc.time_to_recover_total_ns) /
                          static_cast<double>(rc.recoveries)
                    : 0.0;

  const auto& ws = sorter.wait_stats();
  rep.waits.mailbox_waits = ws.mailbox_waits;
  rep.waits.barrier_waits = ws.barrier_waits;
  rep.waits.pool_waits = ws.pool_waits;
  rep.waits.holds_added = ws.holds_added;
  rep.waits.deadlock_checks = ws.deadlock_checks;
  rep.waits.deadlocks = ws.deadlocks;
  rep.waits.max_blocked = static_cast<std::uint64_t>(ws.max_blocked);

  const auto& ps = sorter.pool_stats();
  rep.pool.leases = ps.leases;
  rep.pool.reuses = ps.reuses;
  rep.pool.fresh_allocs = ps.fresh_allocs;
  rep.pool.returns = ps.returns;
  rep.pool.hit_rate =
      ps.leases ? static_cast<double>(ps.reuses) / static_cast<double>(ps.leases)
                : 0.0;
  return rep;
}

}  // namespace pgxd::core
