// pgxd_bench — the repo benchmark. Runs the paper's sort pipeline
// (DistributedSorter on an rt::Cluster) on one named workload and reports
// end-to-end metrics on both clocks: host time of the simulator and
// kernels (in reference seconds, see SpeedReference), and the simulated
// cluster time the DES charges. With --trace 1
// it instead reports a per-layer breakdown from traced jobs and kernel
// replays. benchmark/README.md explains the workloads and every metric;
// benchmark/run.sh builds this binary and drives it.
//
//   pgxd_bench --workload p8-uniform --seed 2017 --seconds 24 --trace 0
//
// Output: a "# ..." header, one "# job <i> <kind>" line as each job starts,
// one "<workload> <metric> <value> <unit> n=<samples>" line per metric
// (plus unscaled wall.* times, which stay out of the result), and as the
// last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every job passed its checks.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/distributed_sort.hpp"
#include "core/sort_report.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
#include "graph/twitter.hpp"
#include "obs/critical_path.hpp"
#include "obs/timeseries.hpp"
#include "sim/trace.hpp"
#include "sort/local_sort.hpp"
#include "sort/parallel_kway_merge.hpp"

namespace {

using Key = std::uint64_t;
using Sorter = pgxd::core::DistributedSorter<Key>;
using Shards = std::vector<std::vector<Key>>;
using Partitions = std::vector<std::vector<Sorter::ItemT>>;
using Clock = std::chrono::steady_clock;
using pgxd::core::PartitionScheme;
using pgxd::core::Step;
using pgxd::core::kStepCount;
using pgxd::gen::Distribution;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double to_ms(pgxd::sim::SimTime t) { return pgxd::sim::to_seconds(t) * 1e3; }

// Every workload sorts n = 2^22 keys with 32 modelled threads per machine
// and every other SortConfig field at its default. They differ in machine
// count, key distribution and partitioning scheme, which decide the layer
// host time goes to (see README.md for why each was chosen).
constexpr std::size_t kKeys = std::size_t{1} << 22;
constexpr unsigned kThreadsPerMachine = 32;

struct Workload {
  const char* name;
  bool twitter;       // graph::twitter_shard keys, not gen::generate_shard
  Distribution dist;  // ignored for twitter
  std::size_t machines;
  PartitionScheme partition;
};

constexpr Workload kWorkloads[] = {
    {"p8-uniform", false, Distribution::kUniform, 8,
     PartitionScheme::kOneLevelSample},
    {"p52-twitter", true, Distribution::kUniform, 52,
     PartitionScheme::kOneLevelSample},
    {"p1024-ams", false, Distribution::kUniform, 1024,
     PartitionScheme::kTwoLevelAms},
    {"p256-zipf-histogram", false, Distribution::kZipf, 256,
     PartitionScheme::kHistogramRefine},
};

// A run sorts kInputs inputs in turn: the shards of --seed itself, which
// is what `pgxd_sim --seed` sorts, and of kInputs - 1 seeds derived from
// it. Simulated time moves by up to 8% from one seed to the next at p=8;
// the median over several inputs keeps one input's luck out of the result.
constexpr std::size_t kInputs = 4;
// The first jobs of a process can run 20-75% slower (page faults,
// allocator growth); they are checked but not timed.
constexpr int kWarmupJobs = 2;

std::uint64_t input_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : pgxd::derive_seed(seed, k);
}

std::string distribution_name(const Workload& w) {
  return w.twitter ? "twitter" : pgxd::gen::name(w.dist);
}

Shards make_shards(const Workload& w, std::uint64_t seed) {
  Shards shards;
  shards.reserve(w.machines);
  if (w.twitter) {
    pgxd::graph::TwitterConfig cfg;
    cfg.total_keys = kKeys;
    cfg.seed = seed;
    for (std::size_t r = 0; r < w.machines; ++r)
      shards.push_back(pgxd::graph::twitter_shard(cfg, w.machines, r));
    return shards;
  }
  pgxd::gen::DataGenConfig cfg;
  cfg.dist = w.dist;
  cfg.seed = seed;
  for (std::size_t r = 0; r < w.machines; ++r)
    shards.push_back(pgxd::gen::generate_shard(cfg, kKeys, w.machines, r));
  return shards;
}

pgxd::rt::ClusterConfig cluster_config(const Workload& w, std::uint64_t seed) {
  pgxd::rt::ClusterConfig cfg;
  cfg.machines = w.machines;
  cfg.threads_per_machine = kThreadsPerMachine;
  cfg.seed = seed;
  return cfg;
}

// Telemetry is set explicitly: its default reads $PGXD_TELEMETRY, and an
// exported variable must not turn a timed job into an instrumented one.
pgxd::core::SortConfig sort_config(const Workload& w, bool telemetry) {
  pgxd::core::SortConfig cfg;
  cfg.partition = w.partition;
  cfg.telemetry = telemetry;
  return cfg;
}

// Order-independent multiset fingerprint: two sums of independently mixed
// keys (a sum, unlike a xor, does not cancel duplicate pairs).
struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  void add(Key k) {
    a += mix(k);
    b += mix(k ^ 0x9e3779b97f4a7c15ULL);
  }
  bool operator==(const Fingerprint&) const = default;
};

// What a correct output must match. Shards are a pure function of their
// seed, so every job on one input sorts the same shards and this is
// prepared once per input, outside every timed region.
struct Expected {
  Shards input;                   // as generated: validate_sorted's input
  Shards sorted;                  // each shard sorted: provenance targets
  std::vector<std::size_t> base;  // shard m's offset in a flat n-key index
  Fingerprint fingerprint;
};

Expected make_expected(const Workload& w, std::uint64_t seed) {
  Expected want;
  want.input = make_shards(w, seed);
  want.sorted = want.input;
  std::size_t at = 0;
  for (auto& shard : want.sorted) {
    std::sort(shard.begin(), shard.end());
    want.base.push_back(at);
    at += shard.size();
    for (Key k : shard) want.fingerprint.add(k);
  }
  PGXD_CHECK_MSG(at == kKeys, "datagen produced the wrong key count");
  return want;
}

// The benchmark's own output check, independent of core::validate_sorted:
// key order within and across partitions, the key count, the multiset
// fingerprint, and provenance — every item names an equal key in its
// source's sorted shard, and each (machine, index) is named exactly once.
// Returns an empty string when the output is correct.
std::string check_output(const Partitions& parts, const Expected& want) {
  std::vector<std::uint8_t> named(kKeys, 0);
  Fingerprint fp;
  std::size_t count = 0;
  const Key* prev = nullptr;
  for (std::size_t m = 0; m < parts.size(); ++m) {
    for (std::size_t i = 0; i < parts[m].size(); ++i) {
      const Sorter::ItemT& item = parts[m][i];
      if (prev != nullptr && item.key < *prev)
        return "key order broken in partition " + std::to_string(m) +
               (i == 0 ? " at its start" : " at index " + std::to_string(i));
      prev = &item.key;
      ++count;
      fp.add(item.key);
      const std::size_t src = item.prov.prev_machine;
      const std::uint64_t idx = item.prov.prev_index;
      if (src >= want.sorted.size() || idx >= want.sorted[src].size())
        return "provenance out of range in partition " + std::to_string(m);
      if (want.sorted[src][idx] != item.key)
        return "provenance names a different key in partition " +
               std::to_string(m);
      std::uint8_t& seen = named[want.base[src] + idx];
      if (seen != 0)
        return "provenance (" + std::to_string(src) + ", " +
               std::to_string(idx) + ") named twice";
      seen = 1;
    }
  }
  if (count != kKeys)
    return "output holds " + std::to_string(count) + " keys, input " +
           std::to_string(kKeys);
  if (!(fp == want.fingerprint)) return "output multiset fingerprint differs";
  return {};
}

// A job's simulated outcome. Deterministic for an input: every job on it
// must reproduce the first job's bit for bit, traced or not.
struct SimOutcome {
  pgxd::sim::SimTime total = 0;
  std::array<pgxd::sim::SimTime, kStepCount> phase_max{};
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double imbalance = 0.0;

  bool operator==(const SimOutcome&) const = default;
};

// Named samples in first-use order; a metric reports their median.
class Metrics {
 public:
  void add(const std::string& name, const char* unit, double v) {
    for (Entry& e : entries_)
      if (e.name == name) {
        e.values.push_back(v);
        return;
      }
    entries_.push_back(Entry{name, unit, {v}});
  }

  void print_lines(const char* workload) const {
    for (const Entry& e : entries_)
      std::printf("%s %s %.6g %s n=%zu\n", workload, e.name.c_str(),
                  median_of(e.values), e.unit, e.values.size());
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (const Entry& e : entries_) {
      std::snprintf(buf, sizeof buf, "%.17g", median_of(e.values));
      if (out.size() > 1) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    std::vector<double> values;  // never empty
  };

  static double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }

  std::vector<Entry> entries_;
};

struct Job {
  double datagen_s = 0;
  double cluster_build_s = 0;
  double setup_s = 0;  // datagen + cluster and sorter construction
  double sort_s = 0;   // DistributedSorter::run
  double validate_s = 0;
  double report_s = 0;
  double job_s = 0;    // run + validate_sorted + build_sort_report
  double kernels_s = 0;  // traced jobs: local-sort + final-merge replays
  SimOutcome sim;
  std::string failure;  // empty when the job passed every check
};

// Re-runs step (1)'s kernel from outside on a copy of every input shard.
double replay_local_sort(const Expected& want) {
  double total = 0;
  for (const auto& shard : want.input) {
    std::vector<Key> copy = shard;
    const auto t0 = Clock::now();
    pgxd::sort::local_sort(copy, pgxd::sort::LocalSortAlgo::kAdaptive);
    total += seconds_since(t0);
  }
  return total;
}

// Re-runs step (6)'s kernel from outside: each output partition, regrouped
// untimed into sorted runs, is merged again with the sorter's parallel
// k-way SoA merge (no pool, one range per modelled thread). Any grouping
// of a sorted partition yields sorted runs; items are grouped by source
// machine modulo `runs`, the number of runs the sorter merged. For the
// flat schemes that is exactly one run per source; under two-level AMS,
// whose final merge takes one run per group member, provenance names the
// origin rank rather than the member, so the runs match in count only.
// Returns the summed merge time, or nullopt when a replay does not
// reproduce its partition.
std::optional<double> replay_final_merge(const Partitions& parts,
                                         std::size_t runs) {
  double total = 0;
  for (const auto& part : parts) {
    std::vector<std::size_t> bounds(runs + 1, 0);
    for (const auto& item : part) ++bounds[item.prov.prev_machine % runs + 1];
    std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
    std::vector<std::size_t> cursor(bounds.begin(), bounds.end() - 1);
    std::vector<Key> keys(part.size());
    for (const auto& item : part)
      keys[cursor[item.prov.prev_machine % runs]++] = item.key;
    std::vector<std::uint32_t> perm(part.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::vector<Key> key_out;
    std::vector<std::uint32_t> perm_out;
    const auto t0 = Clock::now();
    pgxd::sort::parallel_kway_merge_soa(keys, perm, bounds, key_out, perm_out,
                                        pgxd::sort::Less{}, nullptr,
                                        kThreadsPerMachine);
    total += seconds_since(t0);
    for (std::size_t i = 0; i < part.size(); ++i)
      if (key_out[i] != part[i].key) return std::nullopt;
  }
  return total;
}

// The plain baseline: one single-threaded std::sort of all n keys.
double replay_std_sort(const Expected& want) {
  std::vector<Key> all;
  all.reserve(kKeys);
  for (const auto& shard : want.input)
    all.insert(all.end(), shard.begin(), shard.end());
  const auto t0 = Clock::now();
  std::sort(all.begin(), all.end());
  return seconds_since(t0);
}

// Per-layer numbers of one traced job: counts from the public accessors of
// runtime, sim, net and core, the critical path over the trace, and the
// kernel replays.
void collect_layers(const Workload& w, const Expected& want,
                    const Sorter& sorter, const pgxd::sim::Trace& trace,
                    const pgxd::core::SortReport& report, Job& job,
                    Metrics& layers) {
  const auto& cluster = sorter.cluster();
  const auto& st = sorter.stats();
  const auto& pool = sorter.pool_stats();
  layers.add("runtime.pool.leases", "count", static_cast<double>(pool.leases));
  layers.add("runtime.pool.fresh_allocs", "count",
             static_cast<double>(pool.fresh_allocs));
  layers.add("runtime.pool.hit_rate", "ratio", report.pool.hit_rate);
  layers.add("runtime.control_bytes", "B",
             static_cast<double>(st.wire_bytes_samples));

  const auto& waits = sorter.wait_stats();
  layers.add("sim.waits.mailbox", "count",
             static_cast<double>(waits.mailbox_waits));
  layers.add("sim.waits.barrier", "count",
             static_cast<double>(waits.barrier_waits));
  layers.add("sim.waits.pool", "count", static_cast<double>(waits.pool_waits));
  layers.add("sim.waits.max_blocked", "count",
             static_cast<double>(waits.max_blocked));

  const auto& fabric = cluster.fabric();
  pgxd::sim::SimTime tx_max = 0, rx_max = 0;
  for (std::size_t r = 0; r < fabric.machines(); ++r) {
    tx_max = std::max(tx_max, fabric.tx_busy(r));
    rx_max = std::max(rx_max, fabric.rx_busy(r));
  }
  layers.add("net.messages", "count",
             static_cast<double>(fabric.total_messages()));
  layers.add("net.bytes", "B", static_cast<double>(fabric.total_bytes()));
  layers.add("net.tx_busy_max_ms", "ms", to_ms(tx_max));
  layers.add("net.rx_busy_max_ms", "ms", to_ms(rx_max));

  const double local_s = replay_local_sort(want);
  layers.add("sort.local_s", "s", local_s);
  const std::size_t runs = w.machines / st.partition.groups;
  if (const auto merge_s = replay_final_merge(sorter.partitions(), runs)) {
    layers.add("sort.merge_s", "s", *merge_s);
    job.kernels_s = local_s + *merge_s;
  } else {
    job.failure = "final-merge replay does not reproduce the output";
  }
  layers.add("sort.ref_std_sort_s", "s", replay_std_sort(want));

  const auto t0 = Clock::now();
  const pgxd::obs::CriticalPathReport cp =
      pgxd::obs::compute_critical_path(trace, 5, st.total_time);
  layers.add("obs.critical_path_s", "s", seconds_since(t0));
  for (std::size_t s = 0; s < kStepCount; ++s) {
    const Step step = static_cast<Step>(s);
    const std::string suffix = pgxd::core::step_metric_suffix(step);
    layers.add("core.phase_max_ms." + suffix, "ms", to_ms(st.steps_max[step]));
    double share = 0.0, slack_ms = 0.0;
    for (const auto& ph : cp.phases)
      if (ph.name == pgxd::core::step_name(step)) {
        share = ph.share;
        slack_ms = to_ms(ph.slack_mean_ns);
      }
    layers.add("core.path_share." + suffix, "ratio", share);
    layers.add("core.path_slack_ms." + suffix, "ms", slack_ms);
  }
  layers.add("core.partition.rounds", "count",
             static_cast<double>(st.partition.rounds));
  layers.add("core.partition.sample_keys", "count",
             static_cast<double>(st.partition.sample_keys));
  layers.add("core.partition.probe_keys", "count",
             static_cast<double>(st.partition.probe_keys));
  layers.add("core.splitter_max_error", "ratio", report.splitters.max_error);
  layers.add("obs.report_s", "s", job.report_s);
  layers.add("obs.flow_edges", "count",
             static_cast<double>(trace.flows().size()));
}

// One job: set up, sort, validate, report — timed — then the benchmark's
// own output check, untimed. A traced job also records spans and flows,
// runs the time-series sampler with telemetry on, and feeds `layers`.
Job run_job(const Workload& w, std::uint64_t seed, const Expected& want,
            Metrics* layers) {
  const bool traced = layers != nullptr;
  Job job;
  const auto t0 = Clock::now();
  Shards shards = make_shards(w, seed);
  job.datagen_s = seconds_since(t0);

  const auto t1 = Clock::now();
  pgxd::sim::Trace trace;
  pgxd::obs::TimeSeriesSampler sampler;
  pgxd::rt::Cluster<Sorter::Msg> cluster(cluster_config(w, seed));
  Sorter sorter(cluster, sort_config(w, traced));
  if (traced) {
    sorter.set_trace(&trace);
    sorter.set_sampler(&sampler);
  }
  job.cluster_build_s = seconds_since(t1);
  job.setup_s = seconds_since(t0);

  const auto t2 = Clock::now();
  sorter.run(std::move(shards));
  job.sort_s = seconds_since(t2);
  const auto t3 = Clock::now();
  const pgxd::core::ValidationReport valid =
      pgxd::core::validate_sorted(sorter.partitions(), want.input);
  job.validate_s = seconds_since(t3);
  const auto t4 = Clock::now();
  pgxd::core::SortRunInfo info;
  info.distribution = distribution_name(w);
  info.n = kKeys;
  info.machines = w.machines;
  info.seed = seed;
  const pgxd::core::SortReport report =
      pgxd::core::build_sort_report(sorter, std::move(info));
  job.report_s = seconds_since(t4);
  job.job_s = seconds_since(t2);

  job.failure = valid.ok() ? check_output(sorter.partitions(), want)
                           : "validate_sorted: " + valid.failure;

  const auto& st = sorter.stats();
  job.sim.total = st.total_time;
  job.sim.phase_max = st.steps_max.t;
  job.sim.events = cluster.simulator().events_processed();
  job.sim.messages = cluster.fabric().total_messages();
  job.sim.imbalance = st.balance.imbalance;
  if (traced) {
    // The sampler's own events: one per sample (the spawn, then each timer
    // firing) plus the wake-up of the final, cancelled timer. Net of them
    // the traced count must equal the untraced one.
    const pgxd::obs::TimeSeriesDump dump = sampler.dump();
    PGXD_CHECK(!dump.series.empty());  // the sorter registers one per rank
    const auto& series = dump.series.front();
    job.sim.events -= series.points.size() + series.dropped + 1;
    collect_layers(w, want, sorter, trace, report, job, *layers);
  }
  return job;
}

// One input of a run: its expected output, and the simulated outcome of its
// first passing job, which every later job on it must reproduce.
struct Input {
  std::uint64_t seed;
  Expected want;
  std::optional<SimOutcome> first;
};

struct Run {
  const Workload& w;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Runs and checks one job on `in`.
  Job job(Input& in, const char* kind, Metrics* layers = nullptr) {
    std::printf("# job %zu %s seed=%llu\n", attempted, kind,
                static_cast<unsigned long long>(in.seed));
    std::fflush(stdout);
    ++attempted;
    Job j = run_job(w, in.seed, in.want, layers);
    if (j.failure.empty()) {
      if (!in.first)
        in.first = j.sim;
      else if (!(j.sim == *in.first))
        j.failure = layers ? "tracing moved the simulated outcome"
                           : "simulated outcome differs between jobs";
    }
    if (!j.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "pgxd_bench: %s job %zu failed: %s\n", kind,
                   attempted - 1, j.failure.c_str());
    }
    return j;
  }

  // Spends `seconds` on the run's inputs in turn, an equal share each,
  // calling `measure` (one job, or one job pair) at least once per input.
  // Preparing each input's expected output, and the warm-up jobs on the
  // first input, come outside the shares. Returns each input's simulated
  // outcome.
  template <typename Measure>
  std::vector<SimOutcome> each_input(std::uint64_t seed, double seconds,
                                     Measure measure) {
    std::vector<SimOutcome> outcomes;
    for (std::size_t k = 0; k < kInputs; ++k) {
      Input in{input_seed(seed, k), make_expected(w, input_seed(seed, k)),
               std::nullopt};
      if (k == 0)
        for (int i = 0; i < kWarmupJobs; ++i) job(in, "warmup");
      const auto start = Clock::now();
      double last = 0;
      for (std::size_t n = 0;
           n == 0 || seconds_since(start) + last <= seconds / kInputs; ++n) {
        const auto t0 = Clock::now();
        measure(in);
        last = seconds_since(t0);
      }
      if (!in.first) continue;
      const SimOutcome& o = *in.first;
      std::printf("# input seed=%llu sim_sort_ms=%.6f imbalance=%.4f "
                  "net.messages=%llu sim.events=%llu\n",
                  static_cast<unsigned long long>(in.seed), to_ms(o.total),
                  o.imbalance, static_cast<unsigned long long>(o.messages),
                  static_cast<unsigned long long>(o.events));
      outcomes.push_back(o);
    }
    return outcomes;
  }
};

// End-to-end host times are in reference seconds. Shared machines run
// everything 30-50% slower for minutes at a time. This kernel, timed right
// after each job, slows down with them: a single-threaded std::sort of n
// keys from a fixed seed, the same work for every workload and run and
// beyond the reach of any change to this repo. Each host time is scaled by
// kSeconds / (its time), so the drift cancels.
class SpeedReference {
 public:
  // The kernel's time on a steady 4-vCPU Xeon VM.
  static constexpr double kSeconds = 0.37;

  SpeedReference() : keys_(kKeys) {
    pgxd::Rng rng(0x5eed);
    for (Key& k : keys_) k = rng.next();
  }
  double time() {
    scratch_.assign(keys_.begin(), keys_.end());
    const auto t0 = Clock::now();
    std::sort(scratch_.begin(), scratch_.end());
    return seconds_since(t0);
  }

 private:
  std::vector<Key> keys_;
  std::vector<Key> scratch_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// End-to-end pass: timed jobs on every input, each followed by the
// reference sort. Host metrics are medians over the timed jobs in
// reference seconds, simulated ones medians over the inputs. The unscaled
// wall times print alongside, outside the JSON result.
Metrics end_to_end(Run& run, std::uint64_t seed, double seconds) {
  Metrics m;
  Metrics wall;
  SpeedReference speed;
  const std::vector<SimOutcome> outcomes =
      run.each_input(seed, seconds, [&](Input& in) {
        const Job j = run.job(in, "timed");
        if (!j.failure.empty()) return;
        const double reference_s = speed.time();
        const double scale = SpeedReference::kSeconds / reference_s;
        m.add("job_s", "s", j.job_s * scale);
        m.add("sort_s", "s", j.sort_s * scale);
        m.add("setup_s", "s", j.setup_s * scale);
        wall.add("wall.job_s", "s", j.job_s);
        wall.add("wall.sort_s", "s", j.sort_s);
        wall.add("wall.setup_s", "s", j.setup_s);
        wall.add("wall.reference_s", "s", reference_s);
      });
  wall.print_lines(run.w.name);
  m.add("peak_rss_mb", "MB", peak_rss_mb());
  for (const SimOutcome& o : outcomes) {
    m.add("sim_sort_ms", "ms", to_ms(o.total));
    m.add("imbalance", "ratio", o.imbalance);
  }
  return m;
}

// Traced pass: (untraced, traced) job pairs on every input. The untraced
// job gives the host timings tracing would distort; the traced job gives
// the counts, the critical path and the kernel replays.
Metrics traced(Run& run, std::uint64_t seed, double seconds) {
  Metrics layers;
  run.each_input(seed, seconds, [&](Input& in) {
    const Job u = run.job(in, "untraced");
    const Job t = run.job(in, "traced", &layers);
    if (!u.failure.empty() || !t.failure.empty()) return;
    const double events = static_cast<double>(u.sim.events);
    layers.add("datagen.s", "s", u.datagen_s);
    layers.add("runtime.cluster_build_s", "s", u.cluster_build_s);
    layers.add("core.validate_s", "s", u.validate_s);
    layers.add("sim.events", "count", events);
    layers.add("sim.host_ns_per_event", "ns", u.sort_s / events * 1e9);
    layers.add("core.run_other_s", "s", u.sort_s - t.kernels_s);
    layers.add("obs.trace_overhead", "ratio", t.sort_s / u.sort_s);
  });
  return layers;
}

}  // namespace

int main(int argc, char** argv) {
  pgxd::Flags flags;
  flags.declare("workload",
                "p8-uniform | p52-twitter | p1024-ams | p256-zipf-histogram",
                "");
  flags.declare("seed", "input seed (2017 default; 7919 held out for claims)",
                "2017");
  flags.declare("seconds", "wall-clock budget for the measured jobs", "24");
  flags.declare("trace", "0 = end-to-end metrics, 1 = per-layer breakdown",
                "0");
  flags.declare("git", "source revision, echoed in the header", "unknown");
  flags.parse(argc, argv);

  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (flags.str("workload") == c.name) w = &c;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n%s",
                 flags.str("workload").c_str(), flags.help().c_str());
    return 2;
  }
  // glibc raises its mmap threshold as large blocks are freed, so whether a
  // job's buffers are fresh pages or recycled heap depends on the jobs
  // before it, and setup and sort times flip between two levels. Pinning
  // the threshold at its initial value gives every job fresh pages for its
  // large buffers, as in a one-shot pgxd_sim process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::uint64_t seed = flags.u64("seed");
  const double seconds = flags.f64("seconds");
  const bool trace = flags.u64("trace") != 0;
  std::printf("# pgxd_bench workload=%s seed=%llu git=%s trace=%d seconds=%g\n",
              w->name, static_cast<unsigned long long>(seed),
              flags.str("git").c_str(), trace ? 1 : 0, seconds);

  Run run{*w};
  const Metrics m =
      trace ? traced(run, seed, seconds) : end_to_end(run, seed, seconds);

  m.print_lines(w->name);
  std::printf("%s failed_jobs %.6g ratio n=%zu\n", w->name,
              static_cast<double>(run.failed) /
                  static_cast<double>(run.attempted),
              run.attempted);
  const bool correct = run.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failed,
              m.json().c_str());
  return correct ? 0 : 1;
}
