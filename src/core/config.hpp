// Configuration and result types of the PGX.D distributed sort.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "runtime/buffered_writer.hpp"
#include "sim/time.hpp"
#include "sort/local_sort.hpp"
#include "sort/partition.hpp"

namespace pgxd::core {

// Final-merge strategy for step (6). All three run on real data over the
// same structure-of-arrays planes (bare keys plus a u32 permutation) and
// emit bit-identical output; they only differ in data movement and
// intra-merge parallelism.
enum class MergeAlgo {
  // Fig. 2 pairwise balanced merge tree (the paper's handler): every
  // element moves once per level, ceil(log2 R) levels, merges parallel.
  kPairwiseTree,
  // Single-pass parallel loser-tree k-way merge
  // (sort/parallel_kway_merge.hpp): splitter search cuts the output into
  // per-thread ranges, each merged by one loser tree — one move per
  // element. The default.
  kParallelKway,
  // The same kernel with one range: a single sequential loser tree over
  // the whole partition, charged as a naive k-way merge (the
  // no-parallelism ablation).
  kSequentialKway,
};

// Local-sort strategy for step (1); the enum lives with the kernel in
// sort/local_sort.hpp.
using sort::LocalSortAlgo;

// Partitioning strategy for steps (2)-(4); the enum and the pure strategy
// kernels live in sort/partition.hpp.
using sort::PartitionScheme;
const char* partition_scheme_name(PartitionScheme s);

// The six steps of Sec. IV, used to index StepTimings (Fig. 7).
enum class Step : std::size_t {
  kLocalSort = 0,       // (1) parallel quicksort + balanced merge
  kSampling = 1,        // (2) regular samples -> master
  kSplitterSelect = 2,  // (3) master selects splitters, broadcast (wait time
                        //     for non-master machines)
  kPartitionPlan = 3,   // (4) binary search + investigator + counts exchange
  kExchange = 4,        // (5) simultaneous send/receive of data ranges
  kFinalMerge = 5,      // (6) balanced merge of per-source runs
};
inline constexpr std::size_t kStepCount = 6;

const char* step_name(Step s);
// Metric-name-safe step suffix ("send/receive" -> "exchange"): names a
// step in the report's phases and in the benchmark's per-layer metrics.
const char* step_metric_suffix(Step s);

// Default for SortConfig::telemetry: true when the PGXD_TELEMETRY
// environment variable is set to anything but "0" or empty. Lets
// scripts/check.sh run the whole test suite instrumented without touching
// any call site; explicit assignment always wins. Read once and cached.
bool telemetry_default();

struct StepTimings {
  std::array<sim::SimTime, kStepCount> t{};

  sim::SimTime& operator[](Step s) { return t[static_cast<std::size_t>(s)]; }
  sim::SimTime operator[](Step s) const { return t[static_cast<std::size_t>(s)]; }
  sim::SimTime total() const {
    sim::SimTime sum = 0;
    for (auto x : t) sum += x;
    return sum;
  }
  // Element-wise max; used to aggregate across machines.
  void max_with(const StepTimings& o) {
    for (std::size_t i = 0; i < kStepCount; ++i) t[i] = std::max(t[i], o.t[i]);
  }
};

// Crash-recovery policy for the sort (tentpole of the robustness layer).
// With recovery enabled the sorter runs every receive deadline-aware
// (polling for abort frames and failure-detector suspicion once per half
// detector timeout), and a host-side supervisor — the stand-in for the
// cluster scheduler — re-runs the sort on the surviving membership whenever
// a member crash-stops mid-attempt. Chunks lost on the wire are the
// reliable-delivery layer's to retransmit. Requires
// SortConfig::async_exchange (the bulk-synchronous ablation's full-cluster
// barrier cannot span a shrunk membership) and a cluster with reliable
// fail-fast delivery plus the failure detector.
struct RecoveryConfig {
  bool enabled = false;
  // Failed attempts the supervisor will re-run before declaring the sort
  // unrecoverable (attempts = 1 + max_recoveries).
  int max_recoveries = 3;
  // Fewer survivors than this is unrecoverable: a one-rank "cluster" could
  // technically sort, but the job's capacity contract is void.
  std::size_t min_members = 2;
};

// Outcome of the recovery supervisor for one sort run; all zeros when no
// failure was ever detected (final_members == machine count then).
struct RecoveryStats {
  std::uint64_t recoveries = 0;          // failed attempts that were re-run
  int final_attempt = 0;                 // 0 = first attempt succeeded
  std::size_t final_members = 0;         // ranks that produced the output
  std::uint64_t regenerated_shards = 0;  // dead ranks' inputs rebuilt
  std::uint64_t abort_broadcasts = 0;    // abort fan-outs initiated
  // Simulated machine-time thrown away by aborted attempts (elapsed x
  // participating ranks, summed over failed attempts).
  sim::SimTime wasted_work_ns = 0;
  // Crash instant -> end of the aborted attempt, per failed attempt.
  sim::SimTime time_to_recover_total_ns = 0;
  sim::SimTime time_to_recover_max_ns = 0;
};

struct SortConfig {
  // The PGX.D read-buffer size; X = read_buffer_bytes / machines is the
  // per-processor sample budget (Sec. IV-B).
  std::uint64_t read_buffer_bytes = rt::kDefaultBufferBytes;
  // Sample size as a multiple of X (Fig. 9 sweeps 0.004 .. 1.4).
  double sample_factor = 1.0;
  // Fig. 3c duplicate-splitter investigator.
  bool use_investigator = true;
  // Final-merge strategy (see MergeAlgo). All three produce bit-identical
  // output; kSequentialKway is the no-parallelism ablation.
  MergeAlgo final_merge = MergeAlgo::kParallelKway;
  // Local-sort strategy for step (1): comparison sort, radix, or the
  // adaptive per-shard crossover (default). Non-integer keys and custom
  // comparators always take the comparison path.
  LocalSortAlgo local_sort = LocalSortAlgo::kAdaptive;
  // Send-while-receive exchange; false = send everything, barrier, then
  // receive (bulk-synchronous ablation).
  bool async_exchange = true;
  // Telemetry master switch: per-rank obs::MetricsRegistry population and
  // SortReport support. Near-zero cost — every instrumentation point is a
  // branch on this flag, and the counters themselves are plain integer adds
  // outside the simulated cost model. Span tracing stays independently
  // controlled by set_trace(). Defaults from $PGXD_TELEMETRY (see
  // telemetry_default) so the whole suite can run instrumented.
  bool telemetry = telemetry_default();
  // Crash-stop recovery (see RecoveryConfig); disabled by default, and the
  // clean path is byte-identical with it disabled.
  RecoveryConfig recovery{};
  // Partitioning strategy for splitter determination (see PartitionScheme):
  // the paper's one-shot sampling (default), iterative histogram refinement
  // to `partition_epsilon`, or the AMS-style two-level recursion over
  // ~sqrt(p) rank groups.
  PartitionScheme partition = PartitionScheme::kOneLevelSample;
  // Balance target for kHistogramRefine: every partition is guaranteed
  // within (1 +- epsilon) * N/p elements on distinct keys (duplicate runs
  // are rebalanced by the investigator downstream). Must be in (0, 1].
  double partition_epsilon = 0.05;
  // Refinement round budget for kHistogramRefine; the refiner stops early
  // once every boundary is certified within epsilon. Must be >= 1.
  int partition_max_rounds = 10;

  // Rejects contradictory knob combinations; returns an empty string when
  // the configuration is valid, else a one-line reason. The sorter checks
  // this in its constructor, so an invalid config dies loudly instead of
  // running a subtly wrong sort.
  std::string validate() const;
};

struct MachineStats {
  StepTimings steps;
  std::uint64_t received_elements = 0;
  std::uint64_t sent_elements = 0;        // excluding the self range
  std::uint64_t sample_count = 0;
  std::size_t searches = 0;               // binary searches in step (4)
  std::size_t duplicate_groups = 0;
  // Exchange chunks discarded as fabric-level duplicates (only non-zero on
  // a duplicating fabric without reliable delivery).
  std::uint64_t duplicate_chunks = 0;
  std::uint64_t peak_persistent_bytes = 0;
  std::uint64_t peak_temp_bytes = 0;
};

// Outcome of the partitioning strategy for one sort run (tentpole of the
// scalable-partitioning layer): how hard the splitter determination worked
// and how balanced the result came out, in the epsilon metric.
struct PartitionStats {
  PartitionScheme scheme = PartitionScheme::kOneLevelSample;
  // Histogram refinement rounds executed (1 for the single-shot schemes:
  // one sample gather == one round).
  std::uint64_t rounds = 1;
  double epsilon_target = 0.0;     // configured bound (histogram only)
  // Worst relative partition-size deviation actually achieved:
  // max_size / ideal - 1 over the final output partitions.
  double achieved_epsilon = 0.0;
  std::uint64_t groups = 1;        // AMS rank groups (1 for flat schemes)
  std::uint64_t sample_keys = 0;   // sample keys gathered, all levels
  std::uint64_t probe_keys = 0;    // candidate keys rank-certified (histogram)
  std::uint64_t level1_items = 0;  // items moved by the AMS level-1 exchange
};

template <typename Key>
struct SortStats {
  std::vector<MachineStats> machines;
  StepTimings steps_max;                 // per-step max across machines
  sim::SimTime total_time = 0;
  std::uint64_t wire_bytes_total = 0;
  std::uint64_t wire_bytes_samples = 0;  // sampling + splitter + counts traffic
  BalanceReport balance;
  std::vector<Key> splitters;
  RecoveryStats recovery;
  PartitionStats partition;
};

}  // namespace pgxd::core
