// pgxd_sim — command-line driver for the simulated sorting engines.
//
// Runs any engine (pgxd sample sort, spark sortByKey, bitonic, radix) on
// any workload at any cluster size, validates the result, and prints a
// full report: step/stage times, per-machine loads, wire traffic, memory,
// and (optionally) an ASCII Gantt timeline of the sort steps.
//
// Examples:
//   pgxd_sim --engine=pgxd --dist=twitter --n=4194304 --p=32 --gantt=true
//   pgxd_sim --engine=spark --dist=right-skewed --p=10
//   pgxd_sim --engine=radix --dist=uniform --p=8 --csv=true
//   pgxd_sim --dist=exponential --p=4 --report=out.json --trace=out.trace.json
#include <cstdio>
#include <optional>
#include <string>

#include "baselines/bitonic.hpp"
#include "baselines/radix.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
#include "graph/twitter.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/trace.hpp"
#include "spark/sort_by_key.hpp"

namespace {

using Key = std::uint64_t;
using pgxd::Table;

struct Options {
  std::string engine;
  std::string dist;
  std::size_t n = 0;
  std::size_t p = 0;
  unsigned threads = 32;
  std::uint64_t seed = 2017;
  bool csv = false;
  bool gantt = false;
  bool validate = true;
  std::string report_path;  // SortReport JSON (pgxd engine only)
  std::string trace_path;   // Chrome trace_event JSON (pgxd engine only)
  // Causal telemetry (pgxd engine only): critical-path analysis over the
  // span+flow trace, and the time-series sampler interval (0 = off).
  bool critical_path = false;
  std::uint64_t sample_us = 0;
  // Crash-stop fault schedule (pgxd only) and the machinery that survives
  // it: heartbeat failure detector + fail-fast reliable delivery +
  // phase-level sort recovery.
  std::vector<pgxd::net::CrashEvent> crashes;
  bool detector = false;
  bool recovery = false;
  // Lossy-fabric knobs (pgxd only). Either implies reliable delivery —
  // the sort is not drop-tolerant without it.
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  // Schedule perturbation (pgxd only): 0 = the canonical schedule; any
  // other value seeds one deterministic alternative delivery order (plus
  // an optional mailbox wake-up jitter window), the deadlock suite's fuzz
  // dimension.
  std::uint64_t perturb_seed = 0;
  std::uint64_t perturb_jitter_ns = 0;
  pgxd::core::SortConfig sort_cfg;
};

// Parses "--crash=rank@at_us[:restart_after_us]" entries (comma-separated),
// e.g. "2@1500" (rank 2 crash-stops at 1.5ms, never restarts) or
// "2@1500:4000,0@9000" (rank 2 restarts its ports 4ms after the crash and
// rank 0 dies at 9ms).
std::vector<pgxd::net::CrashEvent> parse_crashes(const std::string& spec) {
  std::vector<pgxd::net::CrashEvent> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t at_sep = entry.find('@');
    if (at_sep == std::string::npos) {
      std::fprintf(stderr, "bad --crash entry '%s' (want rank@at_us[:restart_after_us])\n",
                   entry.c_str());
      std::exit(2);
    }
    pgxd::net::CrashEvent ev;
    ev.rank = std::stoul(entry.substr(0, at_sep));
    const std::size_t colon = entry.find(':', at_sep);
    const std::string at_us = colon == std::string::npos
                                  ? entry.substr(at_sep + 1)
                                  : entry.substr(at_sep + 1, colon - at_sep - 1);
    ev.at = static_cast<pgxd::sim::SimTime>(std::stoll(at_us)) *
            pgxd::sim::kMicrosecond;
    if (colon != std::string::npos)
      ev.restart_after =
          static_cast<pgxd::sim::SimTime>(std::stoll(entry.substr(colon + 1))) *
          pgxd::sim::kMicrosecond;
    out.push_back(ev);
  }
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

std::vector<std::vector<Key>> make_shards(const Options& opt) {
  std::vector<std::vector<Key>> shards;
  if (opt.dist == "twitter") {
    pgxd::graph::TwitterConfig tcfg;
    tcfg.total_keys = opt.n;
    tcfg.seed = opt.seed;
    for (std::size_t r = 0; r < opt.p; ++r)
      shards.push_back(pgxd::graph::twitter_shard(tcfg, opt.p, r));
    return shards;
  }
  pgxd::gen::DataGenConfig dcfg;
  dcfg.seed = opt.seed;
  bool known = false;
  for (auto d : pgxd::gen::kAllDistributionsExtended) {
    if (opt.dist == pgxd::gen::name(d)) {
      dcfg.dist = d;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "unknown --dist '%s'\n", opt.dist.c_str());
    std::exit(2);
  }
  for (std::size_t r = 0; r < opt.p; ++r)
    shards.push_back(pgxd::gen::generate_shard(dcfg, opt.n, opt.p, r));
  return shards;
}

pgxd::rt::ClusterConfig cluster_config(const Options& opt) {
  pgxd::rt::ClusterConfig cfg;
  cfg.machines = opt.p;
  cfg.threads_per_machine = opt.threads;
  cfg.seed = opt.seed;
  cfg.net.faults.crashes = opt.crashes;
  cfg.net.faults.drop_prob = opt.drop_prob;
  cfg.net.faults.duplicate_prob = opt.dup_prob;
  if (opt.drop_prob > 0 || opt.dup_prob > 0) cfg.reliable.enabled = true;
  if (opt.detector) cfg.detector.enabled = true;
  if (opt.recovery) {
    // The recovery supervisor's prerequisites (see RecoveryConfig).
    cfg.detector.enabled = true;
    cfg.reliable.enabled = true;
    cfg.reliable.fail_fast = true;
    cfg.allow_undrained = true;
  }
  return cfg;
}

void print_loads(const Options& opt, const std::vector<std::uint64_t>& sizes) {
  Table t({"machine", "elements", "share"});
  std::uint64_t total = 0;
  for (auto s : sizes) total += s;
  for (std::size_t m = 0; m < sizes.size(); ++m)
    t.row({std::to_string(m), std::to_string(sizes[m]),
           Table::fmt_pct(total ? static_cast<double>(sizes[m]) /
                                      static_cast<double>(total)
                                : 0.0)});
  if (opt.csv)
    std::fputs(t.render_csv().c_str(), stdout);
  else
    t.print();
}

// Prints the --critical-path summary: path totals, per-phase attribution,
// and the top blocking message hops.
void print_critical_path(const pgxd::obs::CriticalPathReport& cp) {
  std::printf("\ncritical path: %.6f s end-to-end over %zu message hop(s) "
              "(compute %.1f%%, wire %.1f%%), rank %zu -> rank %zu\n",
              pgxd::sim::to_seconds(cp.total_ns), cp.hops,
              cp.total_ns
                  ? 100.0 * static_cast<double>(cp.compute_ns) /
                        static_cast<double>(cp.total_ns)
                  : 0.0,
              cp.total_ns
                  ? 100.0 * static_cast<double>(cp.wire_ns) /
                        static_cast<double>(cp.total_ns)
                  : 0.0,
              cp.start_lane, cp.end_lane);
  Table phases({"phase", "on-path (s)", "share", "wire (s)", "slack mean (s)"});
  for (const auto& p : cp.phases)
    phases.row({p.name,
                Table::fmt(pgxd::sim::to_seconds(p.compute_ns + p.wire_ns), 6),
                Table::fmt_pct(p.share),
                Table::fmt(pgxd::sim::to_seconds(p.wire_ns), 6),
                Table::fmt(pgxd::sim::to_seconds(p.slack_mean_ns), 6)});
  phases.print();
  if (!cp.top_edges.empty()) {
    Table edges({"blocking edge", "wire (s)", "bytes", "retransmit"});
    for (const auto& e : cp.top_edges)
      edges.row({e.label + " " + std::to_string(e.src) + " -> " +
                     std::to_string(e.dst),
                 Table::fmt(pgxd::sim::to_seconds(e.recv - e.send), 6),
                 std::to_string(e.bytes), e.retransmit ? "yes" : "no"});
    edges.print();
  }
}

int run_pgxd(const Options& opt) {
  using Sorter = pgxd::core::DistributedSorter<Key>;
  auto shards = make_shards(opt);
  const auto input = shards;

  pgxd::rt::Cluster<Sorter::Msg> cluster(cluster_config(opt));
  if (opt.perturb_seed != 0)
    cluster.simulator().set_perturbation(
        {true, opt.perturb_seed,
         static_cast<pgxd::sim::SimTime>(opt.perturb_jitter_ns)});
  pgxd::sim::Trace trace;
  const bool want_trace =
      opt.gantt || !opt.trace_path.empty() || opt.critical_path;
  Sorter sorter(cluster, opt.sort_cfg);
  if (want_trace) sorter.set_trace(&trace);
  std::optional<pgxd::obs::TimeSeriesSampler> sampler;
  if (opt.sample_us > 0) {
    sampler.emplace(static_cast<pgxd::sim::SimTime>(opt.sample_us) *
                    pgxd::sim::kMicrosecond);
    sorter.set_sampler(&*sampler);
  }
  sorter.run(std::move(shards));
  const auto& st = sorter.stats();

  std::printf("engine pgxd: sorted %zu keys on %zu machines in %.6f "
              "simulated s\n\n", opt.n, opt.p,
              pgxd::sim::to_seconds(st.total_time));

  Table steps({"step", "max across machines (s)"});
  for (std::size_t s = 0; s < pgxd::core::kStepCount; ++s)
    steps.row({pgxd::core::step_name(static_cast<pgxd::core::Step>(s)),
               Table::fmt(pgxd::sim::to_seconds(
                              st.steps_max[static_cast<pgxd::core::Step>(s)]),
                          6)});
  if (opt.csv)
    std::fputs(steps.render_csv().c_str(), stdout);
  else
    steps.print();

  std::printf("\nwire: %s total (%s control), %llu fabric messages\n",
              Table::fmt_bytes(st.wire_bytes_total).c_str(),
              Table::fmt_bytes(st.wire_bytes_samples).c_str(),
              static_cast<unsigned long long>(cluster.fabric().total_messages()));
  std::printf("balance: imbalance %.4f (min %s, max %s)\n\n",
              st.balance.imbalance,
              Table::fmt_pct(st.balance.min_share).c_str(),
              Table::fmt_pct(st.balance.max_share).c_str());

  if (opt.sort_cfg.recovery.enabled) {
    const auto& rc = st.recovery;
    std::printf("recovery: %llu failed attempt(s) re-run; final attempt %d "
                "completed on %zu/%zu members\n",
                static_cast<unsigned long long>(rc.recoveries),
                rc.final_attempt, rc.final_members, opt.p);
    std::printf("recovery: %llu shard(s) regenerated, %llu abort "
                "broadcast(s)\n",
                static_cast<unsigned long long>(rc.regenerated_shards),
                static_cast<unsigned long long>(rc.abort_broadcasts));
    std::printf("recovery: wasted work %.6f machine-s, time-to-recover max "
                "%.6f s\n\n",
                pgxd::sim::to_seconds(rc.wasted_work_ns),
                pgxd::sim::to_seconds(rc.time_to_recover_max_ns));
  }

  std::vector<std::uint64_t> sizes;
  for (const auto& part : sorter.partitions()) sizes.push_back(part.size());
  print_loads(opt, sizes);

  if (opt.gantt) {
    std::printf("\nstep timeline:\n%s", trace.render_gantt(96).c_str());
  }

  pgxd::obs::CriticalPathReport cp;
  if (opt.critical_path) {
    cp = pgxd::obs::compute_critical_path(trace, /*top_k=*/5,
                                          sorter.stats().total_time);
    print_critical_path(cp);
  }
  const pgxd::obs::TimeSeriesDump ts =
      sampler ? sampler->dump() : pgxd::obs::TimeSeriesDump{};

  if (!opt.report_path.empty()) {
    pgxd::core::SortRunInfo info;
    info.engine = "pgxd";
    info.distribution = opt.dist;
    info.n = opt.n;
    info.machines = opt.p;
    info.seed = opt.seed;
    auto report = pgxd::core::build_sort_report(sorter, std::move(info));
    report.critical_path = cp;
    report.timeseries = ts;
    if (!write_file(opt.report_path, report.to_json() + "\n")) return 1;
    std::printf("\nsort report written to %s\n", opt.report_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    const std::string chrome = pgxd::obs::chrome_trace_json(
        trace, "pgxd", sampler ? &ts : nullptr);
    if (!write_file(opt.trace_path, chrome)) return 1;
    std::printf("chrome trace written to %s — load in Perfetto or "
                "chrome://tracing\n", opt.trace_path.c_str());
  }

  if (opt.validate) {
    if (opt.sort_cfg.recovery.enabled) {
      // A recovered run redistributes dead ranks' shards, so the
      // input<->machine provenance check does not apply; verify order and
      // key-permutation instead (the exactly-once provenance audit already
      // ran in-sim on the attempt membership).
      std::vector<Key> got;
      got.reserve(opt.n);
      const Key* prev = nullptr;
      for (const auto& part : sorter.partitions()) {
        for (const auto& item : part) {
          if (prev != nullptr && item.key < *prev) {
            std::printf("\nvalidation: FAILED — global order violated\n");
            return 1;
          }
          prev = &item.key;
          got.push_back(item.key);
        }
      }
      std::vector<Key> want;
      want.reserve(opt.n);
      for (const auto& s : input) want.insert(want.end(), s.begin(), s.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::printf("\nvalidation: FAILED — output is not a permutation of "
                    "the input\n");
        return 1;
      }
      std::printf("\nvalidation: OK (order, permutation; in-sim "
                  "exactly-once audit)\n");
      return 0;
    }
    const auto report = pgxd::core::validate_sorted(sorter.partitions(), input);
    std::printf("\nvalidation: %s%s%s\n", report.ok() ? "OK" : "FAILED — ",
                report.ok() ? "" : report.failure.c_str(),
                report.ok()
                    ? " (order, global order, permutation, provenance)"
                    : "");
    if (!report.ok()) return 1;
  }
  return 0;
}

template <typename Engine>
int report_keys_engine(const Options& opt, Engine& engine,
                       pgxd::sim::SimTime total,
                       std::uint64_t wire_bytes) {
  std::printf("engine %s: sorted %zu keys on %zu machines in %.6f "
              "simulated s\n", opt.engine.c_str(), opt.n, opt.p,
              pgxd::sim::to_seconds(total));
  std::printf("wire: %s\n\n", Table::fmt_bytes(wire_bytes).c_str());
  std::vector<std::uint64_t> sizes;
  for (const auto& part : engine.partitions()) sizes.push_back(part.size());
  print_loads(opt, sizes);

  if (opt.validate) {
    // Key-only engines: check order + permutation.
    std::vector<Key> all_out;
    const Key* prev = nullptr;
    for (const auto& part : engine.partitions()) {
      for (const auto& k : part) {
        if (prev != nullptr && k < *prev) {
          std::printf("\nvalidation: FAILED — global order violated\n");
          return 1;
        }
        prev = &k;
        all_out.push_back(k);
      }
    }
    if (all_out.size() != opt.n) {
      std::printf("\nvalidation: FAILED — element count mismatch\n");
      return 1;
    }
    std::printf("\nvalidation: OK (order, count)\n");
  }
  return 0;
}

int run_spark(const Options& opt) {
  using Spark = pgxd::spark::SparkSortByKey<Key>;
  pgxd::rt::Cluster<Spark::Msg> cluster(cluster_config(opt));
  Spark spark(cluster);
  spark.run(make_shards(opt));
  const auto& st = spark.stats();
  Table stages({"stage", "max across machines (s)"});
  for (std::size_t s = 0; s < pgxd::spark::kStageCount; ++s)
    stages.row({pgxd::spark::stage_name(static_cast<pgxd::spark::Stage>(s)),
                Table::fmt(pgxd::sim::to_seconds(
                               st[static_cast<pgxd::spark::Stage>(s)]),
                           6)});
  const int rc = report_keys_engine(opt, spark, st.total_time, st.wire_bytes);
  std::printf("\n");
  if (opt.csv)
    std::fputs(stages.render_csv().c_str(), stdout);
  else
    stages.print();
  return rc;
}

int run_bitonic(const Options& opt) {
  using Bitonic = pgxd::baselines::BitonicSorter<Key>;
  pgxd::rt::Cluster<Bitonic::Msg> cluster(cluster_config(opt));
  Bitonic sorter(cluster);
  sorter.run(make_shards(opt));
  return report_keys_engine(opt, sorter, sorter.stats().total_time,
                            sorter.stats().wire_bytes);
}

int run_radix(const Options& opt) {
  using Radix = pgxd::baselines::RadixSorter<Key>;
  pgxd::rt::Cluster<Radix::Msg> cluster(cluster_config(opt));
  Radix sorter(cluster);
  sorter.run(make_shards(opt));
  return report_keys_engine(opt, sorter, sorter.stats().total_time,
                            sorter.stats().wire_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  pgxd::Flags flags;
  flags.declare("engine", "pgxd | spark | bitonic | radix", "pgxd");
  flags.declare("dist",
                "uniform | normal | right-skewed | exponential | zipf | "
                "few-distinct | twitter",
                "uniform");
  flags.declare("n", "total keys", "1048576");
  flags.declare("p", "machines", "8");
  flags.declare("threads", "worker threads per machine", "32");
  flags.declare("seed", "root seed", "2017");
  flags.declare("csv", "emit tables as CSV", "false");
  flags.declare("gantt", "print the step timeline (pgxd only)", "false");
  flags.declare("report",
                "write the SortReport flight-recorder JSON here (pgxd only; "
                "implies telemetry)", "");
  flags.declare("trace",
                "write a Chrome trace_event JSON of the step spans, flow "
                "arrows, and counter graphs here (pgxd only)", "");
  flags.declare("critical-path",
                "walk the span+flow trace and print the longest dependency "
                "chain: per-phase attribution, slack, top blocking edges "
                "(pgxd only; also lands in --report)", "false");
  flags.declare("sample-us",
                "time-series sampler interval in simulated microseconds "
                "(0 = off; series land in --report and --trace) (pgxd only)",
                "0");
  flags.declare("perturb",
                "schedule-perturbation seed: permute same-timestamp event "
                "delivery deterministically (0 = canonical order) "
                "(pgxd only)", "0");
  flags.declare("perturb-jitter-ns",
                "also jitter mailbox wake-ups by up to this many simulated "
                "ns (needs --perturb) (pgxd only)", "0");
  flags.declare("validate", "validate the sorted result", "true");
  flags.declare("investigator", "duplicate-splitter investigator (pgxd)", "true");
  flags.declare("async", "asynchronous exchange (pgxd)", "true");
  flags.declare("merge",
                "final-merge strategy: kway (single-pass parallel) | "
                "pairwise (Fig. 2 tree) | kway-seq (sequential ablation) "
                "(pgxd)", "kway");
  flags.declare("local-sort",
                "step-1 local sort: adaptive | quicksort | radix (pgxd)",
                "adaptive");
  flags.declare("partition",
                "splitter-selection strategy: one-level (paper baseline) | "
                "histogram (iterative histogram refinement to the --epsilon "
                "balance target) | two-level (AMS-style sqrt(p) rank-group "
                "recursion) (pgxd)", "one-level");
  flags.declare("epsilon",
                "histogram refinement balance target: certify every "
                "partition within (1+epsilon) * N/p (pgxd)", "0.05");
  flags.declare("max-rounds",
                "histogram refinement round budget (pgxd)", "10");
  flags.declare("sample-factor", "sample size in multiples of X (pgxd)", "1.0");
  flags.declare("buffer-bytes", "read buffer size in bytes (pgxd)", "262144");
  flags.declare("crash",
                "crash-stop schedule rank@at_us[:restart_after_us],... "
                "(pgxd only)", "");
  flags.declare("detector", "heartbeat failure detector", "false");
  flags.declare("drop",
                "fabric drop probability in [0,1); nonzero enables reliable "
                "delivery (pgxd only)", "0");
  flags.declare("dup",
                "fabric duplicate probability in [0,1]; nonzero enables "
                "reliable delivery (pgxd only)", "0");
  flags.declare("recovery",
                "crash recovery: detector + fail-fast delivery + sort "
                "re-run on survivors (pgxd only)", "false");
  flags.parse(argc, argv);

  Options opt;
  opt.engine = flags.str("engine");
  opt.dist = flags.str("dist");
  opt.n = flags.u64("n");
  opt.p = flags.u64("p");
  opt.threads = static_cast<unsigned>(flags.u64("threads"));
  opt.seed = flags.u64("seed");
  opt.csv = flags.boolean("csv");
  opt.gantt = flags.boolean("gantt");
  opt.validate = flags.boolean("validate");
  opt.report_path = flags.str("report");
  opt.trace_path = flags.str("trace");
  if (!opt.report_path.empty()) opt.sort_cfg.telemetry = true;
  opt.sort_cfg.use_investigator = flags.boolean("investigator");
  opt.sort_cfg.async_exchange = flags.boolean("async");
  {
    const std::string merge = flags.str("merge");
    if (merge == "kway") {
      opt.sort_cfg.final_merge = pgxd::core::MergeAlgo::kParallelKway;
    } else if (merge == "pairwise") {
      opt.sort_cfg.final_merge = pgxd::core::MergeAlgo::kPairwiseTree;
    } else if (merge == "kway-seq") {
      opt.sort_cfg.final_merge = pgxd::core::MergeAlgo::kSequentialKway;
    } else {
      std::fprintf(stderr, "unknown --merge '%s'\n", merge.c_str());
      return 2;
    }
    const std::string ls = flags.str("local-sort");
    if (ls == "adaptive") {
      opt.sort_cfg.local_sort = pgxd::core::LocalSortAlgo::kAdaptive;
    } else if (ls == "quicksort") {
      opt.sort_cfg.local_sort = pgxd::core::LocalSortAlgo::kComparison;
    } else if (ls == "radix") {
      opt.sort_cfg.local_sort = pgxd::core::LocalSortAlgo::kRadix;
    } else {
      std::fprintf(stderr, "unknown --local-sort '%s'\n", ls.c_str());
      return 2;
    }
  }
  {
    const std::string part = flags.str("partition");
    if (part == "one-level" || part == "one-level-sample") {
      opt.sort_cfg.partition = pgxd::core::PartitionScheme::kOneLevelSample;
    } else if (part == "histogram" || part == "histogram-refine") {
      opt.sort_cfg.partition = pgxd::core::PartitionScheme::kHistogramRefine;
    } else if (part == "two-level" || part == "two-level-ams") {
      opt.sort_cfg.partition = pgxd::core::PartitionScheme::kTwoLevelAms;
    } else {
      std::fprintf(stderr, "unknown --partition '%s'\n", part.c_str());
      return 2;
    }
    opt.sort_cfg.partition_epsilon = flags.f64("epsilon");
    opt.sort_cfg.partition_max_rounds =
        static_cast<int>(flags.u64("max-rounds"));
    const std::string why = opt.sort_cfg.validate();
    if (!why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      return 2;
    }
  }
  opt.sort_cfg.sample_factor = flags.f64("sample-factor");
  opt.sort_cfg.read_buffer_bytes = flags.u64("buffer-bytes");
  opt.critical_path = flags.boolean("critical-path");
  opt.sample_us = flags.u64("sample-us");
  opt.perturb_seed = flags.u64("perturb");
  opt.perturb_jitter_ns = flags.u64("perturb-jitter-ns");
  if (opt.perturb_jitter_ns > 0 && opt.perturb_seed == 0) {
    std::fprintf(stderr, "--perturb-jitter-ns needs --perturb=SEED\n");
    return 2;
  }
  if (!flags.str("crash").empty()) opt.crashes = parse_crashes(flags.str("crash"));
  opt.detector = flags.boolean("detector");
  opt.recovery = flags.boolean("recovery");
  opt.sort_cfg.recovery.enabled = opt.recovery;
  opt.drop_prob = flags.f64("drop");
  opt.dup_prob = flags.f64("dup");
  if ((!opt.crashes.empty() || opt.recovery || opt.drop_prob > 0 ||
       opt.dup_prob > 0) &&
      opt.engine != "pgxd") {
    std::fprintf(stderr,
                 "--crash/--recovery/--drop/--dup are only supported by "
                 "--engine=pgxd\n");
    return 2;
  }
  if ((opt.critical_path || opt.sample_us > 0 || opt.perturb_seed != 0) &&
      opt.engine != "pgxd") {
    std::fprintf(stderr,
                 "--critical-path/--sample-us/--perturb are only supported "
                 "by --engine=pgxd\n");
    return 2;
  }

  if (opt.engine == "pgxd") return run_pgxd(opt);
  if (opt.engine == "spark") return run_spark(opt);
  if (opt.engine == "bitonic") return run_bitonic(opt);
  if (opt.engine == "radix") return run_radix(opt);
  std::fprintf(stderr, "unknown --engine '%s'\n%s", opt.engine.c_str(),
               flags.help().c_str());
  return 2;
}
