// Shared plumbing for the figure/table reproduction benches.
//
// Every bench accepts the same core flags (--n, --procs, --seed, --threads,
// plus bench-specific ones) and prints through common/table.hpp so outputs
// are uniform. Element counts default to 2^21 — the paper's 1-billion-entry
// runs scaled to what a single-host simulation sweeps in seconds. Curve
// *shapes* are not scale-invariant: the cost model charges local sort as
// n log n and the wire as n, so a shape measured at 2^21 need not hold at
// the paper's sizes (see EXPERIMENTS.md for the scaling discussion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "datagen/distributions.hpp"
#include "graph/twitter.hpp"
#include "obs/critical_path.hpp"
#include "obs/timeseries.hpp"
#include "runtime/cluster.hpp"
#include "sim/trace.hpp"
#include "spark/sort_by_key.hpp"

namespace pgxd::bench {

using Key = std::uint64_t;
using Sorter = core::DistributedSorter<Key>;
using Spark = spark::SparkSortByKey<Key>;

// The processor counts of the paper's evaluation (8 up to 52).
inline const std::vector<std::uint64_t> kPaperProcs = {8, 16, 24, 32, 40, 52};

struct BenchEnv {
  std::size_t n = 1ull << 21;
  std::vector<std::uint64_t> procs = kPaperProcs;
  unsigned threads = 32;
  std::uint64_t seed = 2017;
  rt::CostModel cost{};  // Table-I defaults, or host-calibrated
  // Full causal telemetry: span trace + per-frame flow edges + time-series
  // sampler on every run (the telemetry overhead gate's "on" side).
  bool flows = false;
};

// Declares the shared flags on `flags`; call parse() afterwards.
inline void declare_common_flags(Flags& flags) {
  flags.declare("n", "total number of keys to sort", "2097152");
  flags.declare("procs", "comma-separated processor counts", "8,16,24,32,40,52");
  flags.declare("threads", "worker threads per processor (Table I: 32)", "32");
  flags.declare("seed", "root RNG seed", "2017");
  flags.declare("calibrate",
                "measure this host's kernels and use them as the cost model "
                "instead of the Table-I defaults",
                "false");
  flags.declare("csv", "emit result tables as CSV (for plotting)", "false");
  flags.declare("flows",
                "record span trace + flow edges + time-series sampler on "
                "every run (overhead-gate workload)",
                "false");
}

// Prints `t` as an aligned table, or as CSV when --csv was passed.
inline void emit(const Table& t, const Flags& flags) {
  if (flags.boolean("csv"))
    std::fputs(t.render_csv().c_str(), stdout);
  else
    t.print();
}

inline BenchEnv env_from_flags(const Flags& flags) {
  BenchEnv env;
  env.n = flags.u64("n");
  env.procs = flags.u64_list("procs");
  env.threads = static_cast<unsigned>(flags.u64("threads"));
  env.seed = flags.u64("seed");
  env.flows = flags.boolean("flows");
  if (flags.boolean("calibrate")) {
    env.cost = rt::calibrate();
    std::printf("calibrated cost model: sort %.3f ns/(elem*log2), merge %.3f "
                "ns/elem, copy %.3f ns/elem, probe %.3f ns\n",
                env.cost.sort_ns_per_elem_log, env.cost.merge_ns_per_elem,
                env.cost.copy_ns_per_elem, env.cost.search_ns_per_probe);
  }
  return env;
}

inline rt::ClusterConfig cluster_config(const BenchEnv& env, std::size_t p) {
  rt::ClusterConfig cfg;
  cfg.machines = p;
  cfg.threads_per_machine = env.threads;
  cfg.seed = env.seed;
  cfg.cost = env.cost;
  return cfg;
}

inline std::vector<std::vector<Key>> dist_shards(const BenchEnv& env,
                                                 gen::Distribution dist,
                                                 std::size_t p) {
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.seed = env.seed;
  std::vector<std::vector<Key>> shards;
  shards.reserve(p);
  for (std::size_t r = 0; r < p; ++r)
    shards.push_back(gen::generate_shard(dcfg, env.n, p, r));
  return shards;
}

inline std::vector<std::vector<Key>> twitter_shards(const BenchEnv& env,
                                                    std::size_t p) {
  graph::TwitterConfig tcfg;
  tcfg.total_keys = env.n;
  tcfg.seed = env.seed;
  std::vector<std::vector<Key>> shards;
  shards.reserve(p);
  for (std::size_t r = 0; r < p; ++r)
    shards.push_back(graph::twitter_shard(tcfg, p, r));
  return shards;
}

struct PgxdRun {
  core::SortStats<Key> stats;
  // Telemetry flight recorder: phase timings, load balance, splitter error,
  // network/pool counters, merged metrics. Benches read from here.
  core::SortReport report;
  std::vector<std::uint64_t> partition_sizes;
  std::vector<std::pair<Key, Key>> partition_ranges;  // (min,max), empty->0,0
  std::vector<std::uint64_t> peak_persistent;
  std::vector<std::uint64_t> peak_temp;
};

inline PgxdRun run_pgxd(const BenchEnv& env, std::size_t p,
                        std::vector<std::vector<Key>> shards,
                        core::SortConfig cfg = {},
                        const std::string& distribution = "unknown") {
  // cfg.telemetry follows $PGXD_TELEMETRY by default; the report's phase /
  // load / splitter sections are always populated, registry-backed sections
  // only when telemetry is on (scripts/check.sh telemetry measures the
  // on-vs-off overhead through these benches).
  rt::Cluster<Sorter::Msg> cluster(cluster_config(env, p));
  Sorter sorter(cluster, cfg);
  sim::Trace trace;
  obs::TimeSeriesSampler sampler;
  if (env.flows) {
    sorter.set_trace(&trace);
    sorter.set_sampler(&sampler);
  }
  sorter.run(std::move(shards));
  PgxdRun run;
  run.stats = sorter.stats();
  core::SortRunInfo info;
  info.distribution = distribution;
  info.n = env.n;
  info.machines = p;
  info.seed = env.seed;
  run.report = core::build_sort_report(sorter, std::move(info));
  if (env.flows) {
    run.report.critical_path = obs::compute_critical_path(
        trace, /*top_k=*/5, sorter.stats().total_time);
    run.report.timeseries = sampler.dump();
  }
  for (const auto& part : sorter.partitions()) {
    run.partition_sizes.push_back(part.size());
    if (part.empty())
      run.partition_ranges.emplace_back(0, 0);
    else
      run.partition_ranges.emplace_back(part.front().key, part.back().key);
  }
  for (const auto& ms : run.stats.machines) {
    run.peak_persistent.push_back(ms.peak_persistent_bytes);
    run.peak_temp.push_back(ms.peak_temp_bytes);
  }
  return run;
}

inline spark::SparkStats run_spark(const BenchEnv& env, std::size_t p,
                                   std::vector<std::vector<Key>> shards,
                                   const spark::SparkCostProfile& profile = {}) {
  rt::Cluster<Spark::Msg> cluster(cluster_config(env, p));
  Spark sp(cluster, profile);
  sp.run(std::move(shards));
  return sp.stats();
}

inline std::string seconds(sim::SimTime t, int precision = 0) {
  const double s = sim::to_seconds(t);
  if (precision == 0) precision = s < 0.01 ? 6 : 4;  // keep small sims readable
  return Table::fmt(s, precision);
}

// Prints the standard bench header with the scaled-run disclaimer.
inline void print_header(const std::string& figure, const std::string& claim,
                         const BenchEnv& env) {
  print_banner(figure, claim);
  std::printf(
      "n=%zu keys, threads/machine=%u, seed=%llu (paper: 1B keys on the "
      "Table I cluster;\nsimulated fabric: 6 GB/s links, 2us latency — "
      "shapes comparable, absolute values scaled)\n\n",
      env.n, env.threads, static_cast<unsigned long long>(env.seed));
}

}  // namespace pgxd::bench
