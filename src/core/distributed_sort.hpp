// The PGX.D distributed sorting method (Sec. IV) — the paper's primary
// contribution, implemented as one coroutine per simulated machine over the
// runtime substrate.
//
// Pipeline (Sec. IV, steps 1-6):
//   1. Local parallel quicksort with the Fig. 2 balanced merge handler.
//   2. Regular samples (X = read_buffer / p bytes each) sent to the master.
//   3. Master selects p-1 splitters, broadcasts them.
//   4. Binary search of splitters on local data, with the duplicate-splitter
//      investigator (Fig. 3c); per-destination counts broadcast so every
//      receiver knows its offsets up front.
//   5. Simultaneous asynchronous send/receive of data ranges, streamed in
//      read-buffer-sized chunks through the data-manager request buffers.
//   6. Balanced parallel merge of the per-source sorted runs, keeping each
//      element's previous processor and index (provenance).
//
// All data movement is real (the output partitions are physically sorted
// real vectors); elapsed time is simulated through the cost model and the
// network fabric.
//
// Crash-stop recovery (SortConfig::recovery): the whole pipeline is
// parameterized over an *attempt membership* — an ordered subset of the
// cluster's ranks with member 0 as master — so the same code runs the clean
// p-rank sort and a shrunk (p-1)-rank re-run. A host-side supervisor
// (run_recovering) detects a member crash after each attempt, regenerates
// the dead rank's input shard from its deterministic source, and re-runs on
// the survivors; inside an attempt every receive polls for abort/control
// frames and failure-detector suspicion so survivors abandon a doomed
// attempt in bounded time instead of deadlocking, and exchange receivers
// hedge re-requests for straggling chunks off a quantile-based deadline so
// a slow NIC degrades throughput rather than stalling the merge barrier.
// With recovery disabled the clean path is byte-identical to before: every
// receive is a plain blocking recv and no control traffic exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/provenance.hpp"
#include "core/splitters.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runtime/cluster.hpp"
#include "runtime/errors.hpp"
#include "sim/trace.hpp"
#include "sim/wait_graph.hpp"
#include "sort/local_sort.hpp"
#include "sort/parallel_kway_merge.hpp"
#include "sort/quicksort.hpp"
#include "sort/samples.hpp"
#include "sort/soa_merge.hpp"

namespace pgxd::core {

// One sortable element: the key plus where it came from.
template <typename Key>
struct Item {
  Key key;
  Provenance prov;
};

// Message payload for the sort's communication; which member is populated
// depends on the tag.
// Only keys travel on the wire. Data chunks carry `prov_base`: the chunk's
// start offset in the sender's locally sorted sequence, from which the
// receiver reconstructs per-element provenance — the paper's low exchange
// volume and its "memory used for keeping previous information" (receiver-
// side provenance arrays, Fig. 11) both follow from this design.
template <typename Key>
struct SortMsg {
  std::vector<Key> keys;              // kTagSamples / kTagSplitters / kTagData
  std::vector<std::uint64_t> counts;  // kTagCounts / kTagCtrl
  std::uint64_t prov_base = 0;        // kTagData: sender-side start offset
  // kTagData: offset of this chunk within the (src -> dst) range, so
  // receivers place chunks correctly even if the fabric reorders them
  // (e.g. under latency jitter).
  std::uint64_t rel_offset = 0;

  // User-declared constructors are load-bearing; see the note on
  // rt::Message about GCC 12 and aggregate temporaries in co_await.
  SortMsg() = default;
  SortMsg(std::vector<Key> k, std::vector<std::uint64_t> c, std::uint64_t base,
          std::uint64_t rel)
      : keys(std::move(k)), counts(std::move(c)), prov_base(base),
        rel_offset(rel) {}

  static SortMsg of_data(std::vector<Key> v, std::uint64_t base,
                         std::uint64_t rel) {
    return SortMsg(std::move(v), {}, base, rel);
  }
  static SortMsg of_keys(std::vector<Key> v) {
    return SortMsg(std::move(v), {}, 0, 0);
  }
  static SortMsg of_counts(std::vector<std::uint64_t> v) {
    return SortMsg({}, std::move(v), 0, 0);
  }
};

template <typename Key, typename Comp = sort::Less>
class DistributedSorter {
 public:
  using Msg = SortMsg<Key>;
  using Cluster = rt::Cluster<Msg>;
  using ItemT = Item<Key>;
  using Envelope = rt::Message<Msg>;

  // Tag layout; `sort_id` offsets the whole tag space so several sorts can
  // share one cluster run ("able to sort multiple different data
  // simultaneously"). kTagCtrl carries the recovery layer's out-of-band
  // frames (abort fan-outs, straggler re-requests). Tags 5-6 carry the
  // histogram-refinement rounds, 8-11 the AMS level-1 exchange; tags 7 and
  // 12-15 are reserved.
  static constexpr int kTagSamples = 0;
  static constexpr int kTagSplitters = 1;
  static constexpr int kTagCounts = 2;
  static constexpr int kTagData = 3;
  static constexpr int kTagCtrl = 4;
  static constexpr int kTagProbe = 5;       // master -> members: probe/draw/done
  static constexpr int kTagReply = 6;       // members -> master: round replies
  static constexpr int kTagL1Samples = 8;   // AMS: samples to the global master
  static constexpr int kTagGroupSplit = 9;  // AMS: coarse group splitters
  static constexpr int kTagL1Counts = 10;   // AMS: bucket size to the partner
  static constexpr int kTagL1Data = 11;     // AMS: the bucket itself
  static constexpr int kTagStride = 16;

  // Control-frame kinds (counts[0]); counts[1] is the attempt number.
  static constexpr std::uint64_t kCtrlAbort = 1;
  // counts[2..] are the missing chunk indices of the addressed source.
  static constexpr std::uint64_t kCtrlReRequest = 2;

  // Histogram-refinement frame kinds (kTagProbe counts[0]); counts[1] is a
  // per-attempt round sequence number so a duplicating fabric's redelivered
  // requests are recognized as stale.
  static constexpr std::uint64_t kProbeCount = 1;  // count these probe keys
  static constexpr std::uint64_t kProbeDraw = 2;   // draw inside these intervals
  static constexpr std::uint64_t kProbeDone = 3;   // refinement finished

  // Exchange wire cost: keys only (provenance is reconstructed at the
  // receiver from the message's source and prov_base), plus a small
  // per-message header.
  static constexpr std::uint64_t kDataWireBytesPerKey = sizeof(Key);
  static constexpr std::uint64_t kChunkHeaderBytes = 16;
  // Receiver-side storage per element: key + provenance record.
  static constexpr std::uint64_t kStoredBytesPerItem =
      sizeof(Key) + kProvenanceBytes;

  DistributedSorter(Cluster& cluster, SortConfig cfg, int sort_id = 0,
                    Comp comp = {})
      : cluster_(cluster), cfg_(cfg), base_tag_(sort_id * kTagStride),
        comp_(comp) {
    const std::string why = cfg_.validate();
    PGXD_CHECK_MSG(why.empty(), why.c_str());
    const std::size_t p = cluster_.size();
    input_.resize(p);
    output_.resize(p);
    stats_.machines.resize(p);
    metrics_.resize(p);
  }

  // Installs per-machine input shards (must be called before the cluster
  // run that executes machine_program).
  void set_input(std::vector<std::vector<Key>> shards) {
    PGXD_CHECK(shards.size() == cluster_.size());
    input_ = std::move(shards);
  }

  // Deterministic regeneration of a dead rank's input shard — the stand-in
  // for durable storage. Defaults to replaying the shard installed via
  // set_input (the host still holds it); drivers whose shards come from
  // seeded datagen can install a regenerator instead to model "re-read
  // from the seed, not from the crashed node's memory".
  void set_shard_source(std::function<std::vector<Key>(std::size_t)> src) {
    shard_source_ = std::move(src);
  }

  // Convenience: install shards, run this sort alone on the cluster, and
  // finalize statistics. With SortConfig::recovery enabled this runs the
  // crash-recovery supervisor instead of a single cluster run.
  void run(std::vector<std::vector<Key>> shards) {
    set_input(std::move(shards));
    if (cfg_.recovery.enabled) {
      run_recovering();
      return;
    }
    const sim::SimTime elapsed = cluster_.run(
        [this](rt::Machine& m) { return machine_program(m); });
    finalize(elapsed);
  }

  // Per-machine pipeline over the full membership; exposed so callers can
  // co-schedule several sorts (see sort_simultaneously) — call finalize()
  // with the run's elapsed time afterwards. Not a coroutine (GCC 12: a
  // prvalue argument bound to a coroutine by-value parameter miscompiles).
  sim::Task<void> machine_program(rt::Machine& m) {
    std::vector<std::size_t> members(cluster_.size());
    std::iota(members.begin(), members.end(), std::size_t{0});
    AttemptCtx ctx(0, std::move(members));
    return sort_attempt_impl(m, std::move(ctx));
  }

  // Aggregates per-machine stats; call after the cluster run completes.
  void finalize(sim::SimTime elapsed) {
    stats_.total_time = elapsed;
    stats_.steps_max = StepTimings{};
    for (const auto& ms : stats_.machines) stats_.steps_max.max_with(ms.steps);
    // Balance over the ranks that produced output: after a recovery the
    // dead ranks' partitions are empty by construction, and counting them
    // would report a meaningless imbalance.
    std::vector<std::uint64_t> sizes;
    if (!final_members_.empty()) {
      sizes.reserve(final_members_.size());
      for (std::size_t r : final_members_) sizes.push_back(output_[r].size());
    } else {
      sizes.reserve(output_.size());
      for (const auto& part : output_) sizes.push_back(part.size());
    }
    stats_.balance = balance_report(sizes);
    stats_.splitters = splitters_;
    stats_.wire_bytes_total = wire_data_bytes_ + wire_control_bytes_;
    stats_.wire_bytes_samples = wire_control_bytes_;
    stats_.partition.scheme = cfg_.partition;
    stats_.partition.rounds = part_rounds_;
    stats_.partition.epsilon_target =
        cfg_.partition == PartitionScheme::kHistogramRefine
            ? cfg_.partition_epsilon
            : 0.0;
    // Achieved epsilon in the balance metric: worst relative partition-size
    // deviation over the final output (imbalance is max_size/ideal).
    stats_.partition.achieved_epsilon =
        stats_.balance.imbalance >= 1.0 ? stats_.balance.imbalance - 1.0
                                        : 0.0;
    stats_.partition.groups = part_groups_;
    std::uint64_t sample_keys = 0;
    for (const auto& ms : stats_.machines) sample_keys += ms.sample_count;
    stats_.partition.sample_keys = sample_keys;
    stats_.partition.probe_keys = part_probe_keys_;
    stats_.partition.level1_items = part_level1_items_;
    if (stats_.recovery.final_members == 0)
      stats_.recovery.final_members = output_.size();
    if (cfg_.telemetry) {
      // Fold the substrate's counters into the per-rank registries: NIC
      // traffic/fault counters, the comm layer's reliable-delivery stats
      // (rank 0), and the shared exchange buffer pool (rank 0 — the pool is
      // cluster-wide).
      for (std::size_t r = 0; r < metrics_.size(); ++r)
        cluster_.export_metrics(metrics_[r], r);
      const rt::BufferPoolStats& ps = pool_.stats();
      obs::MetricsRegistry& reg0 = metrics_[0];
      reg0.counter("sort.pool.leases").inc(ps.leases);
      reg0.counter("sort.pool.reuses").inc(ps.reuses);
      reg0.counter("sort.pool.fresh_allocs").inc(ps.fresh_allocs);
      reg0.counter("sort.pool.returns").inc(ps.returns);
      reg0.gauge("sort.pool.peak_free").set(static_cast<double>(ps.peak_free));
      const PartitionStats& pt = stats_.partition;
      reg0.counter(std::string("sort.partition.scheme.") +
                   partition_scheme_name(pt.scheme))
          .inc(1);
      reg0.counter("sort.partition.rounds").inc(pt.rounds);
      reg0.counter("sort.partition.sample_keys").inc(pt.sample_keys);
      reg0.counter("sort.partition.probe_keys").inc(pt.probe_keys);
      reg0.gauge("sort.partition.groups")
          .set(static_cast<double>(pt.groups));
      reg0.gauge("sort.partition.achieved_epsilon")
          .set(pt.achieved_epsilon);
      if (cfg_.recovery.enabled) {
        const RecoveryStats& rc = stats_.recovery;
        reg0.counter("sort.recovery.recoveries").inc(rc.recoveries);
        reg0.counter("sort.recovery.regenerated_shards")
            .inc(rc.regenerated_shards);
        reg0.counter("sort.recovery.abort_broadcasts").inc(rc.abort_broadcasts);
        reg0.counter("sort.recovery.hedged_rerequests")
            .inc(rc.hedged_rerequests);
        reg0.counter("sort.recovery.hedged_chunks_resent")
            .inc(rc.hedged_chunks_resent);
        reg0.gauge("sort.recovery.wasted_work_ns")
            .set(static_cast<double>(rc.wasted_work_ns));
        reg0.gauge("sort.recovery.time_to_recover_max_ns")
            .set(static_cast<double>(rc.time_to_recover_max_ns));
      }
    }
  }

  const std::vector<std::vector<ItemT>>& partitions() const { return output_; }
  std::vector<std::vector<ItemT>>& mutable_partitions() { return output_; }
  const SortStats<Key>& stats() const { return stats_; }
  const SortConfig& config() const { return cfg_; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  // Ranks that produced the final output; equals 0..p-1 unless a recovery
  // shrank the membership.
  const std::vector<std::size_t>& final_members() const {
    return final_members_;
  }
  // Exchange buffer-pool counters (shared across the simulated machines,
  // which live in one address space).
  const rt::BufferPoolStats& pool_stats() const { return pool_.stats(); }
  // Runtime wait-for graph counters (edges registered, detection passes,
  // peak simultaneously-blocked ranks) for the report's waits section.
  const sim::WaitGraph::Stats& wait_stats() const {
    return cluster_.wait_graph().stats();
  }

  // Per-rank telemetry (populated when SortConfig::telemetry is on).
  const obs::MetricsRegistry& metrics(std::size_t rank) const {
    return metrics_[rank];
  }
  const std::vector<obs::MetricsRegistry>& per_rank_metrics() const {
    return metrics_;
  }
  // Cluster-wide view: counters sum, gauges keep the max, histograms merge.
  obs::MetricsRegistry merged_metrics() const {
    return obs::merge_all(metrics_);
  }

  // Optional span tracing: each machine's step becomes a (lane, label,
  // begin, end, bytes) span — see sim::Trace::render_gantt and
  // obs::chrome_trace_json. Declares the cluster size as the lane count so
  // span-less ranks still show up, wires the comm layer to record one flow
  // edge per physical frame it lands (data, retransmit, duplicate, ack),
  // and names the engine tags so exports say "chunk", not "tag 3".
  void set_trace(sim::Trace* trace) {
    trace_ = trace;
    if (trace_) {
      trace_->set_lane_count(cluster_.size());
      trace_->name_tag(tag(kTagSamples), "samples");
      trace_->name_tag(tag(kTagSplitters), "splitters");
      trace_->name_tag(tag(kTagCounts), "counts");
      trace_->name_tag(tag(kTagData), "chunk");
      trace_->name_tag(tag(kTagCtrl), "ctrl");
      trace_->name_tag(tag(kTagProbe), "probe");
      trace_->name_tag(tag(kTagReply), "probe-reply");
      trace_->name_tag(tag(kTagL1Samples), "l1-samples");
      trace_->name_tag(tag(kTagGroupSplit), "group-splitters");
      trace_->name_tag(tag(kTagL1Counts), "l1-counts");
      trace_->name_tag(tag(kTagL1Data), "l1-bucket");
    }
    cluster_.comm().set_trace(trace);
  }

  // Optional time-series telemetry: registers this sorter's live probes —
  // per-rank mailbox depth, exchange BufferPool occupancy/outstanding
  // chunks, failure-detector suspicion — on the sampler and attaches it to
  // the cluster, which starts/stops its sampling loop around each run.
  // The probes observe `this` and the cluster: the sampler must not
  // outlive either while attached. nullptr detaches.
  void set_sampler(obs::TimeSeriesSampler* sampler) {
    if (sampler != nullptr) {
      auto& comm = cluster_.comm();
      for (std::size_t r = 0; r < cluster_.size(); ++r)
        sampler->add("rank" + std::to_string(r) + ".mailbox_depth",
                     [&comm, r] {
                       return static_cast<double>(comm.pending_total(r));
                     });
      sampler->add("pool.free_buffers", [this] {
        return static_cast<double>(pool_.free_buffers());
      });
      sampler->add("pool.outstanding_chunks", [this] {
        return static_cast<double>(pool_.outstanding());
      });
      sampler->add("waitgraph.blocked_ranks", [this] {
        return static_cast<double>(cluster_.wait_graph().blocked());
      });
      if (rt::FailureDetector* det = cluster_.detector())
        sampler->add("detector.suspected_pairs", [det] {
          return static_cast<double>(det->suspected_pair_count());
        });
    }
    cluster_.set_sampler(sampler);
  }

 private:
  // One sort attempt's membership: an ordered subset of the cluster's
  // physical ranks; members[0] is the master. The clean path runs attempt 0
  // over all p ranks. `scope` is the partitioning scope — the subset of
  // members steps (2)-(6) run over, with scope[0] as their master. It
  // equals `members` for the flat schemes; under kTwoLevelAms it shrinks to
  // this rank's group after the level-1 exchange. Aborts and the failure
  // detector always act on the full membership: any member's death dooms
  // the attempt, whichever group it sat in.
  struct AttemptCtx {
    int attempt = 0;
    std::vector<std::size_t> members;
    std::vector<std::size_t> scope;

    AttemptCtx() = default;
    AttemptCtx(int a, std::vector<std::size_t> m)
        : attempt(a), members(std::move(m)), scope(members) {}
    AttemptCtx(int a, std::vector<std::size_t> m, std::vector<std::size_t> s)
        : attempt(a), members(std::move(m)), scope(std::move(s)) {}
  };

  enum class AttemptOutcome { kNotRun, kOk, kCrashed, kAborted };

  // Sender-side state a rank exposes while its exchange window is open, so
  // it can service straggler re-requests against its still-live sorted
  // array. Pointers are only dereferenced between exchange start and
  // local.clear(); recv_sort receives nullptr outside that window.
  struct ExchangeState {
    const std::vector<Key>* local = nullptr;
    const PartitionPlan* plan = nullptr;
    // Two-hop (AMS) exchanges ship per-element origin provenance alongside
    // each chunk (see pack_prov); nullptr for the flat single-hop schemes.
    const std::vector<std::uint64_t>* lprov = nullptr;
    std::uint64_t chunk_elems = 0;
    bool use_pool = false;

    ExchangeState() = default;
  };

  // RAII annotation edge for the exchange's pool-backpressure park: the
  // edge must come off whether the wrapped receive completes or throws
  // (RankCrashedError / SortAbortedError unwind this coroutine frame), or
  // a stale pool edge would misname every later deadlock cycle.
  struct PoolWaitGuard {
    sim::WaitGraph* graph;
    std::size_t token;
    PoolWaitGuard(sim::WaitGraph* g, std::size_t t) : graph(g), token(t) {}
    PoolWaitGuard(const PoolWaitGuard&) = delete;
    PoolWaitGuard& operator=(const PoolWaitGuard&) = delete;
    ~PoolWaitGuard() {
      if (graph != nullptr) graph->end_wait(token);
    }
  };

  // Origin provenance packed into one u64 for the two-hop (AMS) path. The
  // level-1 exchange destroys the "contiguous slice of the sender's sorted
  // shard" property the flat exchange relies on, so the group exchange
  // carries each element's true origin explicitly: machine in the top 24
  // bits, index into the origin's locally sorted shard below. Shipped in
  // the chunk's counts plane as audit metadata — not counted as modeled
  // wire bytes, matching the provenance.hpp convention that provenance is
  // an audit artifact, not protocol payload.
  static constexpr std::uint64_t kProvIndexBits = 40;
  static std::uint64_t pack_prov(std::size_t machine, std::uint64_t index) {
    PGXD_CHECK(machine < (std::uint64_t{1} << (64 - kProvIndexBits)) &&
               index < (std::uint64_t{1} << kProvIndexBits));
    return (static_cast<std::uint64_t>(machine) << kProvIndexBits) | index;
  }
  static Provenance unpack_prov(std::uint64_t packed) {
    return Provenance{static_cast<std::uint32_t>(packed >> kProvIndexBits),
                      packed & ((std::uint64_t{1} << kProvIndexBits) - 1)};
  }

  // Receiver-side straggler tracking for the exchange: inter-chunk arrival
  // gaps feed a q95-based hedge deadline; the chunk-dedup bitmap tells us
  // exactly which chunks are still missing per source.
  struct RecvProgress {
    const std::vector<std::size_t>* seen_base = nullptr;     // member-indexed
    const std::vector<std::uint64_t>* seen_words = nullptr;
    const std::vector<std::uint64_t>* recv_counts = nullptr; // member-indexed
    std::uint64_t chunk_elems = 0;
    sim::SimTime last_arrival = 0;
    sim::SimTime last_hedge = 0;
    std::vector<sim::SimTime> gaps;

    RecvProgress() = default;
  };

  static constexpr std::size_t kHedgeMaxChunksPerSource = 8;
  static constexpr std::size_t kHedgeMinGapSamples = 8;
  static constexpr std::size_t kHedgeMaxGapSamples = 512;
  // Scope size above which the exchange-counts all-to-all is relayed
  // through the scope master as q-entry vectors instead of per-pair u64
  // messages (Step 4). Below it the per-pair path is both cheaper and the
  // paper's literal shape.
  static constexpr std::size_t kBatchedCountsScope = 64;
  // Scope size above which the exchange stops maintaining per-peer
  // mailbox hold edges (the wait-for graph's naming metadata): holds are
  // O(q) per rank, and a deadlock past this size is still detected and
  // reported, just without per-peer attribution.
  static constexpr std::size_t kWaitGraphHoldScope = 256;

  int tag(int t) const { return base_tag_ + t; }
  void note_control_bytes(std::uint64_t b) { wire_control_bytes_ += b; }
  void note_data_bytes(std::uint64_t b) { wire_data_bytes_ += b; }

  std::vector<Key> regenerate_shard(std::size_t rank) const {
    return shard_source_ ? shard_source_(rank) : input_[rank];
  }

  // Poll quantum for deadline-aware receives under recovery: explicit
  // config wins, else half the detector timeout (floored) so suspicion is
  // noticed within one or two polls of becoming observable.
  sim::SimTime poll_quantum() {
    if (cfg_.recovery.poll > 0) return cfg_.recovery.poll;
    if (rt::FailureDetector* det = cluster_.detector())
      return std::max<sim::SimTime>(det->config().timeout / 2,
                                    100 * sim::kMicrosecond);
    return sim::kMillisecond;
  }

  // pgxd-protocol: recovery-path
  // Everything down to the matching end marker runs (or can run) while
  // ranks are crashing: no plain blocking recv, no barrier, no unbounded
  // collective is allowed here — only try_recv / recv_until / plain posts.
  // tools/analyze_protocol.py enforces this.

  // Crash-recovery supervisor: run attempts over the live membership until
  // one completes with no member crashing mid-flight, regenerating dead
  // ranks' shards and re-running on the survivors after each failure.
  // Plays the role of the cluster scheduler / driver, hence host code.
  void run_recovering() {
    PGXD_CHECK_MSG(cfg_.async_exchange,
                   "recovery requires SortConfig::async_exchange (the "
                   "bulk-synchronous ablation's full-cluster barrier cannot "
                   "span a shrunk membership)");
    auto& comm = cluster_.comm();
    PGXD_CHECK_MSG(
        comm.reliable_config().enabled && comm.reliable_config().fail_fast,
        "recovery requires reliable fail-fast delivery "
        "(ClusterConfig::reliable.enabled + fail_fast)");
    PGXD_CHECK_MSG(cluster_.detector() != nullptr,
                   "recovery requires the failure detector "
                   "(ClusterConfig::detector.enabled)");
    PGXD_CHECK_MSG(cluster_.config().allow_undrained,
                   "recovery requires ClusterConfig::allow_undrained "
                   "(aborted attempts and hedged re-sends leave stray "
                   "frames behind by design)");
    recovery_active_ = true;
    auto& sim = cluster_.simulator();
    auto& fabric = cluster_.fabric();
    const std::size_t p = cluster_.size();
    const sim::SimTime run_start = sim.now();
    for (int attempt = 0;; ++attempt) {
      PGXD_CHECK_MSG(attempt <= cfg_.recovery.max_recoveries,
                     "unrecoverable sort: recovery budget exhausted "
                     "(max_recoveries consecutive attempts failed)");
      std::vector<std::size_t> members;
      for (std::size_t r = 0; r < p; ++r)
        if (!fabric.down(r, sim.now())) members.push_back(r);
      PGXD_CHECK_MSG(
          members.size() >= std::max<std::size_t>(cfg_.recovery.min_members, 1),
          "unrecoverable sort: surviving membership fell below "
          "RecoveryConfig::min_members");
      // Attempt inputs: each survivor keeps its own shard; dead ranks'
      // shards are deterministically regenerated and dealt round-robin to
      // the survivors (datagen seeds stand in for durable storage).
      attempt_input_.assign(p, {});
      for (std::size_t r : members) attempt_input_[r] = input_[r];
      std::size_t dead_seen = 0;
      for (std::size_t r = 0; r < p; ++r) {
        if (!fabric.down(r, sim.now())) continue;
        const std::size_t owner = members[dead_seen++ % members.size()];
        std::vector<Key> shard = regenerate_shard(r);
        attempt_input_[owner].insert(attempt_input_[owner].end(),
                                     shard.begin(), shard.end());
        ++stats_.recovery.regenerated_shards;
      }
      for (auto& part : output_) {
        part.clear();
        part.shrink_to_fit();
      }
      stats_.machines.assign(p, MachineStats{});
      outcomes_.assign(p, AttemptOutcome::kNotRun);
      abort_sent_.assign(p, 0);
      part_rounds_ = 1;
      part_probe_keys_ = 0;
      part_level1_items_ = 0;
      part_groups_ = 1;
      part_refine_eps_ = 0.0;
      const sim::SimTime t0 = sim.now();
      const sim::SimTime elapsed = cluster_.run_on(
          members, [this, attempt, &members](rt::Machine& m) {
            AttemptCtx ctx(attempt, members);
            return resilient_program(m, std::move(ctx));
          });
      const sim::SimTime t1 = sim.now();
      // Aborted attempts strand frames in mailboxes and their buffers with
      // them; a clean slate per attempt keeps chunk dedup and pool
      // backpressure honest.
      comm.drain_mailboxes();
      pool_.reconcile_after_drain();
      // Drained frames strand their pool-hold naming edges; with every
      // attempt program finished nothing is in flight, so all pool holds
      // are stale by construction.
      cluster_.wait_graph().clear_holds(sim::WaitResource::pool());
      bool failed = false;
      std::optional<sim::SimTime> first_crash;
      for (std::size_t r : members) {
        if (outcomes_[r] != AttemptOutcome::kOk) failed = true;
        // crashed_within catches crashes no coroutine observed (e.g. a
        // rank dying inside its final merge with all comm already done).
        if (const auto at = fabric.crashed_within(r, t0, t1)) {
          failed = true;
          if (!first_crash || *at < *first_crash) first_crash = *at;
        }
      }
      if (!failed) {
        stats_.recovery.final_attempt = attempt;
        stats_.recovery.final_members = members.size();
        final_members_ = members;
        recovery_active_ = false;
        attempt_input_.clear();
        finalize(sim.now() - run_start);
        return;
      }
      ++stats_.recovery.recoveries;
      stats_.recovery.wasted_work_ns +=
          elapsed * static_cast<sim::SimTime>(members.size());
      if (first_crash) {
        const sim::SimTime ttr = t1 - *first_crash;
        stats_.recovery.time_to_recover_total_ns += ttr;
        stats_.recovery.time_to_recover_max_ns =
            std::max(stats_.recovery.time_to_recover_max_ns, ttr);
      }
    }
  }

  // Crash-tolerant per-member program: translates the failure exceptions
  // into per-rank attempt outcomes so one rank's death never aborts the
  // whole simulation. Not a coroutine (GCC 12 pattern).
  sim::Task<void> resilient_program(rt::Machine& m, AttemptCtx ctx) {
    return resilient_program_impl(m, std::move(ctx));
  }

  sim::Task<void> resilient_program_impl(rt::Machine& m, AttemptCtx ctx) {
    const std::size_t rank = m.rank();
    std::size_t unreachable_peer = rank;
    try {
      AttemptCtx attempt_ctx = ctx;
      co_await sort_attempt(m, std::move(attempt_ctx));
      outcomes_[rank] = AttemptOutcome::kOk;
      co_return;
    } catch (const rt::RankCrashedError&) {
      outcomes_[rank] = AttemptOutcome::kCrashed;
      co_return;
    } catch (const rt::SortAbortedError&) {
      outcomes_[rank] = AttemptOutcome::kAborted;
      co_return;
    } catch (const rt::PeerUnreachableError& e) {
      // This rank noticed the failure through a failed send before the
      // detector did; fan the abort out so the other survivors stop too.
      // (No co_await is legal in a catch handler; abort_attempt only posts.)
      outcomes_[rank] = AttemptOutcome::kAborted;
      unreachable_peer = e.dst();
    }
    abort_attempt(ctx, rank, unreachable_peer);
  }

  // Not a coroutine (GCC 12 pattern).
  sim::Task<void> sort_attempt(rt::Machine& m, AttemptCtx ctx) {
    return sort_attempt_impl(m, std::move(ctx));
  }

  // Fans the abort decision out to the other members (once per rank per
  // attempt) so every survivor abandons the attempt within one poll
  // quantum. Plain posts — safe to call from exception handlers.
  void abort_attempt(const AttemptCtx& ctx, std::size_t rank,
                     std::size_t dead) {
    if (!abort_sent_.empty() && abort_sent_[rank] != 0) return;
    if (!abort_sent_.empty()) abort_sent_[rank] = 1;
    if (cluster_.fabric().down(rank, cluster_.simulator().now()))
      return;  // a crashed rank cannot fan out
    ++stats_.recovery.abort_broadcasts;
    for (std::size_t peer : ctx.members) {
      if (peer == rank) continue;
      std::vector<std::uint64_t> c;
      c.push_back(kCtrlAbort);
      c.push_back(static_cast<std::uint64_t>(ctx.attempt));
      c.push_back(dead);
      const std::uint64_t bytes = c.size() * sizeof(std::uint64_t);
      note_control_bytes(bytes);
      Msg msg = Msg::of_counts(std::move(c));
      cluster_.comm().post(rank, peer, tag(kTagCtrl), std::move(msg), bytes);
    }
  }

  // Drains this rank's control mailbox: abort frames raise SortAbortedError;
  // straggler re-requests are serviced when the rank's exchange window is
  // open (xs != nullptr), else dropped — the requester's reliable-layer
  // retransmissions still deliver the original chunks.
  sim::Task<void> service_ctrl(rt::Machine& m, const AttemptCtx& ctx,
                               const ExchangeState* xs) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    for (;;) {
      std::optional<Envelope> c = comm.try_recv(rank, tag(kTagCtrl));
      if (!c) co_return;
      PGXD_CHECK_MSG(!c->payload.counts.empty(),
                     "empty control frame in the sort's ctrl mailbox");
      const std::uint64_t kind = c->payload.counts[0];
      if (kind == kCtrlAbort) {
        throw rt::SortAbortedError("abort frame from rank " +
                                   std::to_string(c->src));
      }
      if (kind == kCtrlReRequest && xs != nullptr) {
        co_await resend_chunks(m, ctx, *c, *xs);
      }
    }
  }

  // Re-sends the requested exchange chunks to a straggling receiver from
  // this rank's still-live sorted array. Duplicates are harmless: the
  // receiver's chunk-dedup bitmap drops whichever copy arrives second.
  sim::Task<void> resend_chunks(rt::Machine& m, const AttemptCtx& ctx,
                                const Envelope& req, const ExchangeState& xs) {
    const std::size_t requester = req.src;
    // The exchange plan is indexed over the partition scope, not the full
    // membership (they differ under kTwoLevelAms).
    const std::size_t q = ctx.scope.size();
    std::size_t j = q;
    for (std::size_t k = 0; k < q; ++k)
      if (ctx.scope[k] == requester) j = k;
    if (j == q) co_return;  // not in this rank's scope: stale frame
    const std::size_t lo = xs.plan->bounds[j];
    const std::size_t hi = xs.plan->bounds[j + 1];
    for (std::size_t i = 2; i < req.payload.counts.size(); ++i) {
      const std::uint64_t cidx = req.payload.counts[i];
      const std::size_t at =
          lo + static_cast<std::size_t>(cidx * xs.chunk_elems);
      if (at >= hi) continue;  // malformed or stale index: ignore
      const std::size_t take = std::min<std::uint64_t>(
          hi - at, xs.chunk_elems);
      std::vector<Key> chunk =
          xs.use_pool ? pool_.acquire(take) : std::vector<Key>();
      chunk.reserve(take);
      chunk.assign(xs.local->begin() + static_cast<std::ptrdiff_t>(at),
                   xs.local->begin() + static_cast<std::ptrdiff_t>(at + take));
      const std::uint64_t bytes = take * kDataWireBytesPerKey +
                                  kChunkHeaderBytes;
      note_data_bytes(bytes);
      ++stats_.recovery.hedged_chunks_resent;
      co_await m.charge_copy(take);
      std::vector<std::uint64_t> pchunk;
      if (xs.lprov != nullptr)
        pchunk.assign(
            xs.lprov->begin() + static_cast<std::ptrdiff_t>(at),
            xs.lprov->begin() + static_cast<std::ptrdiff_t>(at + take));
      Msg out(std::move(chunk), std::move(pchunk), at, at - lo);
      cluster_.comm().post(m.rank(), requester, tag(kTagData), std::move(out),
                           bytes);
    }
  }

  // Quantile-based hedge deadline: 4x (configurable) the q95 inter-chunk
  // arrival gap once enough samples exist, floored so a quiet start never
  // triggers spurious re-requests.
  sim::SimTime hedge_deadline(const RecvProgress& rp) const {
    sim::SimTime d = cfg_.recovery.hedge_floor;
    if (rp.gaps.size() >= kHedgeMinGapSamples) {
      std::vector<sim::SimTime> tmp(rp.gaps);
      const std::size_t k = (tmp.size() * 95) / 100;
      std::nth_element(tmp.begin(),
                       tmp.begin() + static_cast<std::ptrdiff_t>(k),
                       tmp.end());
      const auto scaled = static_cast<sim::SimTime>(
          static_cast<double>(tmp[k]) * cfg_.recovery.hedge_multiplier);
      d = std::max(d, scaled);
    }
    return d;
  }

  // When the exchange has gone quiet past the hedge deadline with chunks
  // still missing, re-request them (derived from the dedup bitmap's unset
  // bits) from each lagging source. Rate-limited by the same deadline so a
  // stalled receive loop does not spam the fabric.
  void maybe_hedge(rt::Machine& m, const AttemptCtx& ctx, RecvProgress& rp) {
    if (!cfg_.recovery.hedge_rerequests) return;
    auto& sim = cluster_.simulator();
    const sim::SimTime now = sim.now();
    const sim::SimTime deadline = hedge_deadline(rp);
    if (now - rp.last_arrival < deadline) return;
    if (rp.last_hedge != 0 && now - rp.last_hedge < deadline) return;
    rp.last_hedge = now;
    const std::size_t rank = m.rank();
    const std::size_t q = ctx.scope.size();
    std::size_t idx = q;
    for (std::size_t j = 0; j < q; ++j)
      if (ctx.scope[j] == rank) idx = j;
    for (std::size_t j = 0; j < q; ++j) {
      if (j == idx) continue;
      const std::uint64_t cnt = (*rp.recv_counts)[j];
      if (cnt == 0) continue;
      const std::uint64_t nchunks =
          rp.chunk_elems == std::numeric_limits<std::uint64_t>::max()
              ? 1
              : (cnt + rp.chunk_elems - 1) / rp.chunk_elems;
      std::vector<std::uint64_t> missing;
      for (std::uint64_t c = 0;
           c < nchunks && missing.size() < kHedgeMaxChunksPerSource; ++c) {
        const std::size_t word =
            (*rp.seen_base)[j] + static_cast<std::size_t>(c / 64);
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        if (((*rp.seen_words)[word] & bit) == 0) missing.push_back(c);
      }
      if (missing.empty()) continue;
      std::vector<std::uint64_t> req;
      req.reserve(2 + missing.size());
      req.push_back(kCtrlReRequest);
      req.push_back(static_cast<std::uint64_t>(ctx.attempt));
      req.insert(req.end(), missing.begin(), missing.end());
      const std::uint64_t bytes = req.size() * sizeof(std::uint64_t);
      note_control_bytes(bytes);
      ++stats_.recovery.hedged_rerequests;
      Msg msg = Msg::of_counts(std::move(req));
      cluster_.comm().post(rank, ctx.scope[j], tag(kTagCtrl),
                           std::move(msg), bytes);
    }
  }
  // pgxd-protocol: end-recovery-path

  // The sort's one receive primitive. Clean path (recovery off): a plain
  // blocking recv, byte-identical to the pre-recovery sorter. Recovery
  // path: a bounded poll loop that (a) dies promptly if this rank crashed,
  // (b) services control frames (aborts, straggler re-requests), (c) turns
  // failure-detector suspicion of any member into an attempt abort, and
  // (d) hedges exchange re-requests when progress stalls.
  sim::Task<Envelope> recv_sort(rt::Machine& m, const AttemptCtx& ctx, int tg,
                                const ExchangeState* xs, RecvProgress* rp) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    if (!recovery_active_) {
      Envelope v = co_await comm.recv(rank, tg);
      co_return v;
    }
    // pgxd-protocol: recovery-path
    auto& sim = cluster_.simulator();
    rt::FailureDetector* det = cluster_.detector();
    const sim::SimTime poll = poll_quantum();
    for (;;) {
      comm.throw_if_crashed(rank);
      co_await service_ctrl(m, ctx, xs);
      if (det != nullptr) {
        const auto dead = det->first_suspected(rank, ctx.members);
        if (dead) {
          abort_attempt(ctx, rank, *dead);
          throw rt::SortAbortedError("rank " + std::to_string(*dead) +
                                     " suspected crashed");
        }
      }
      const sim::SimTime deadline = sim.now() + poll;
      auto got = co_await comm.recv_until(rank, tg, deadline);
      if (got) {
        if (rp != nullptr) {
          const sim::SimTime gap = sim.now() - rp->last_arrival;
          rp->last_arrival = sim.now();
          if (gap > 0 && rp->gaps.size() < kHedgeMaxGapSamples)
            rp->gaps.push_back(gap);
        }
        co_return std::move(*got);
      }
      if (rp != nullptr) maybe_hedge(m, ctx, *rp);
    }
    // pgxd-protocol: end-recovery-path
  }

  // Per-rank regular-sample budget (Sec. IV-B): X = read_buffer / q bytes,
  // scaled by sample_factor. kHistogramRefine seeds from a deliberately
  // smaller sample and buys the precision back with refinement rounds —
  // that is its whole sample-volume advantage.
  std::uint64_t sample_budget(std::size_t q, std::size_t n,
                              bool histogram) const {
    const std::uint64_t x_bytes =
        std::max<std::uint64_t>(1, cfg_.read_buffer_bytes / q);
    auto count = static_cast<std::uint64_t>(
        static_cast<double>(x_bytes) * cfg_.sample_factor /
        static_cast<double>(sizeof(Key)));
    if (histogram)
      count =
          std::max<std::uint64_t>(2, count / sort::kHistogramSampleDivisor);
    return std::clamp<std::uint64_t>(count, 1, std::max<std::size_t>(n, 1));
  }

  // Master side of kHistogramRefine (Histogram Sort with Sampling): seed
  // candidates from the small sample gather, then alternate counting rounds
  // (exact global rank brackets for the probe set, summed over all members)
  // and draw rounds (fresh candidates from inside the still-unresolved
  // brackets) until every splitter boundary is certified within the epsilon
  // target or the round budget is spent. Ends by releasing the members and
  // broadcasting the final splitters on kTagSplitters, exactly like the
  // one-shot scheme — steps (4)-(6) never know which scheme ran.
  sim::Task<void> refine_splitters(rt::Machine& m, const AttemptCtx& ctx,
                                   const std::vector<Key>& local,
                                   const std::vector<Key>& samples,
                                   std::size_t n) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    const std::size_t p = cluster_.size();
    const std::size_t q = ctx.scope.size();
    std::vector<std::size_t> midx(p, q);
    for (std::size_t j = 0; j < q; ++j) midx[ctx.scope[j]] = j;
    const std::size_t idx = midx[rank];
    auto& mem = m.memory();

    // Seed: gather the sample pool and learn the exact total element count
    // from the piggybacked shard sizes (the refiner's targets need N, not
    // an estimate).
    std::vector<sort::WeightedSample<Key>> pool;
    std::uint64_t total_n = n;
    auto add_samples = [&pool](const std::vector<Key>& keys,
                               std::uint64_t shard_n) {
      if (keys.empty()) return;
      const double w =
          static_cast<double>(shard_n) / static_cast<double>(keys.size());
      for (const auto& k : keys)
        pool.push_back(sort::WeightedSample<Key>{k, w});
    };
    add_samples(samples, n);
    std::vector<bool> sampled(q, false);
    sampled[idx] = true;
    for (std::size_t distinct = 1; distinct < q;) {
      auto msg = co_await recv_sort(m, ctx, tag(kTagSamples), nullptr,
                                    nullptr);
      const std::size_t sj = midx[msg.src];
      PGXD_CHECK_MSG(sj < q,
                     "samples from a rank outside the attempt membership");
      if (sampled[sj]) continue;
      sampled[sj] = true;
      ++distinct;
      total_n += msg.payload.prov_base;
      add_samples(msg.payload.keys, msg.payload.prov_base);
    }
    std::vector<Key> cands;
    {
      rt::TempAlloc pool_mem(mem, pool.size() * sizeof(Key) * 2);
      std::sort(pool.begin(), pool.end(),
                [this](const sort::WeightedSample<Key>& a,
                       const sort::WeightedSample<Key>& b) {
                  return comp_(a.key, b.key);
                });
      co_await m.compute_parallel(m.cost().sort_time(pool.size()));
      cands = sort::select_splitters_weighted<Key, Comp>(pool, q, comp_);
    }

    sort::HistogramRefiner<Key, Comp> refiner(q, total_n,
                                              cfg_.partition_epsilon, comp_);
    std::vector<Key> probe = refiner.seed(std::move(cands));
    const auto max_rounds =
        static_cast<std::size_t>(cfg_.partition_max_rounds);
    std::uint64_t seq = 0;
    while (!refiner.done() && !probe.empty() &&
           refiner.rounds() < max_rounds) {
      // Counting round: broadcast the probe set; everyone (including us)
      // contributes exact local rank brackets, summed into global ones.
      ++seq;
      for (std::size_t j = 1; j < q; ++j) {
        std::vector<std::uint64_t> hdr;
        hdr.push_back(kProbeCount);
        hdr.push_back(seq);
        std::vector<Key> req_keys = probe;
        const std::uint64_t bytes = req_keys.size() * sizeof(Key) +
                                    hdr.size() * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        Msg req(std::move(req_keys), std::move(hdr), 0, 0);
        comm.post(rank, ctx.scope[j], tag(kTagProbe), std::move(req), bytes);
      }
      std::vector<std::uint64_t> lo, hi;
      sort::count_ranks<Key, Comp>(local, probe, lo, hi, comp_);
      co_await m.compute(m.cost().histogram_round_time(n, probe.size()));
      std::vector<bool> replied(q, false);
      replied[idx] = true;
      for (std::size_t distinct = 1; distinct < q;) {
        auto msg = co_await recv_sort(m, ctx, tag(kTagReply), nullptr,
                                      nullptr);
        const std::size_t sj = midx[msg.src];
        PGXD_CHECK_MSG(sj < q,
                       "probe reply from a rank outside the membership");
        const auto& c = msg.payload.counts;
        if (c.empty() || c[0] != seq) continue;  // stale round: drop
        if (replied[sj]) continue;
        PGXD_CHECK_MSG(c.size() == 1 + 2 * probe.size(),
                       "probe reply does not match the probe set");
        replied[sj] = true;
        ++distinct;
        for (std::size_t i = 0; i < probe.size(); ++i) {
          lo[i] += c[1 + i];
          hi[i] += c[1 + probe.size() + i];
        }
      }
      refiner.absorb_counts(lo, hi);
      if (refiner.done() || refiner.rounds() >= max_rounds) break;
      // Draw round: fresh candidates strictly inside the unresolved
      // brackets, from every member.
      const std::vector<sort::RefineInterval<Key>> ivs =
          refiner.draw_intervals();
      if (ivs.empty()) break;
      ++seq;
      std::vector<Key> ser;
      std::vector<std::uint64_t> flags;
      for (const auto& iv : ivs) {
        ser.push_back(iv.has_lo ? iv.lo : Key{});
        ser.push_back(iv.has_hi ? iv.hi : Key{});
        flags.push_back((iv.has_lo ? 1u : 0u) | (iv.has_hi ? 2u : 0u));
      }
      for (std::size_t j = 1; j < q; ++j) {
        std::vector<std::uint64_t> hdr;
        hdr.push_back(kProbeDraw);
        hdr.push_back(seq);
        hdr.insert(hdr.end(), flags.begin(), flags.end());
        std::vector<Key> req_keys = ser;
        const std::uint64_t bytes = req_keys.size() * sizeof(Key) +
                                    hdr.size() * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        Msg req(std::move(req_keys), std::move(hdr), 0, 0);
        comm.post(rank, ctx.scope[j], tag(kTagProbe), std::move(req), bytes);
      }
      std::vector<Key> drawn = sort::draw_candidates<Key, Comp>(
          local, ivs, sort::kDrawPerInterval, comp_);
      co_await m.charge_binary_search(n, 2 * ivs.size());
      std::vector<bool> drew(q, false);
      drew[idx] = true;
      for (std::size_t distinct = 1; distinct < q;) {
        auto msg = co_await recv_sort(m, ctx, tag(kTagReply), nullptr,
                                      nullptr);
        const std::size_t sj = midx[msg.src];
        PGXD_CHECK_MSG(sj < q,
                       "draw reply from a rank outside the membership");
        const auto& c = msg.payload.counts;
        if (c.empty() || c[0] != seq) continue;  // stale round: drop
        if (drew[sj]) continue;
        drew[sj] = true;
        ++distinct;
        drawn.insert(drawn.end(), msg.payload.keys.begin(),
                     msg.payload.keys.end());
      }
      probe = refiner.absorb_draws(std::move(drawn));
    }
    part_rounds_ = std::max<std::uint64_t>(1, refiner.rounds());
    part_probe_keys_ += refiner.probe_keys();
    part_refine_eps_ = refiner.achieved_epsilon();

    // Resolution round: the refiner certifies a boundary by a key whose
    // duplicate run *brackets* the target rank — landing on that rank
    // exactly means splitting the run by count, which no downstream
    // consumer can derive from the key alone (the investigator splits dup
    // runs heuristically, forfeiting the certified epsilon on dup-heavy
    // data). One more exact counting round over the final splitter keys,
    // kept per member this time, lets the master hand every member its
    // duplicate take per boundary; the takes ride with the splitters.
    splitters_ = refiner.splitters();
    const std::size_t nb = splitters_.size();
    std::vector<std::vector<std::uint64_t>> mem_lo(q), mem_hi(q);
    if (nb > 0) {
      ++seq;
      for (std::size_t j = 1; j < q; ++j) {
        std::vector<std::uint64_t> hdr;
        hdr.push_back(kProbeCount);
        hdr.push_back(seq);
        std::vector<Key> req_keys = splitters_;
        const std::uint64_t bytes = req_keys.size() * sizeof(Key) +
                                    hdr.size() * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        Msg req(std::move(req_keys), std::move(hdr), 0, 0);
        comm.post(rank, ctx.scope[j], tag(kTagProbe), std::move(req), bytes);
      }
      sort::count_ranks<Key, Comp>(local, splitters_, mem_lo[idx],
                                   mem_hi[idx], comp_);
      co_await m.compute(m.cost().histogram_round_time(n, nb));
      std::vector<bool> replied(q, false);
      replied[idx] = true;
      for (std::size_t distinct = 1; distinct < q;) {
        auto msg = co_await recv_sort(m, ctx, tag(kTagReply), nullptr,
                                      nullptr);
        const std::size_t sj = midx[msg.src];
        PGXD_CHECK_MSG(sj < q,
                       "probe reply from a rank outside the membership");
        const auto& c = msg.payload.counts;
        if (c.empty() || c[0] != seq) continue;  // stale round: drop
        if (replied[sj]) continue;
        PGXD_CHECK_MSG(c.size() == 1 + 2 * nb,
                       "resolution reply does not match the splitter set");
        replied[sj] = true;
        ++distinct;
        mem_lo[sj].assign(c.begin() + 1,
                          c.begin() + 1 + static_cast<std::ptrdiff_t>(nb));
        mem_hi[sj].assign(c.begin() + 1 + static_cast<std::ptrdiff_t>(nb),
                          c.end());
      }
      part_probe_keys_ += nb;
    }
    // Boundary i lands at global rank r = clamp(target, sum lo, sum hi);
    // members contribute their duplicates in member order until r is met.
    // For equal splitter keys r is non-decreasing in i over the same
    // bracket, so per-member takes are monotone and bounds stay sorted.
    std::vector<std::vector<std::uint64_t>> takes(
        q, std::vector<std::uint64_t>(nb, 0));
    std::uint64_t worst_err = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      std::uint64_t glo = 0, ghi = 0;
      for (std::size_t j = 0; j < q; ++j) {
        glo += mem_lo[j][i];
        ghi += mem_hi[j][i];
      }
      const std::uint64_t t = refiner.target(i);
      const std::uint64_t r = std::clamp(t, glo, ghi);
      worst_err = std::max(worst_err, r > t ? r - t : t - r);
      std::uint64_t need = r - glo;
      for (std::size_t j = 0; j < q && need > 0; ++j) {
        const std::uint64_t d =
            std::min<std::uint64_t>(mem_hi[j][i] - mem_lo[j][i], need);
        takes[j][i] = d;
        need -= d;
      }
    }
    if (nb > 0 && total_n > 0)
      part_refine_eps_ = 2.0 * static_cast<double>(q) *
                         static_cast<double>(worst_err) /
                         static_cast<double>(total_n);
    if (cfg_.telemetry) {
      obs::MetricsRegistry& mreg = metrics_[rank];
      mreg.counter("sort.partition.refine_rounds").inc(refiner.rounds());
      mreg.gauge("sort.partition.certified_epsilon").set(part_refine_eps_);
    }
    // Release the members from their service loops, then broadcast the
    // final splitters exactly like the one-shot scheme — plus each
    // member's dup-take vector in the counts plane.
    ++seq;
    for (std::size_t j = 1; j < q; ++j) {
      std::vector<std::uint64_t> hdr;
      hdr.push_back(kProbeDone);
      hdr.push_back(seq);
      const std::uint64_t bytes = hdr.size() * sizeof(std::uint64_t);
      note_control_bytes(bytes);
      comm.post(rank, ctx.scope[j], tag(kTagProbe),
                Msg::of_counts(std::move(hdr)), bytes);
    }
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t dst = ctx.scope[j];
      const std::uint64_t bytes =
          splitters_.size() * sizeof(Key) +
          takes[j].size() * sizeof(std::uint64_t);
      if (dst != rank) note_control_bytes(bytes);
      Msg smsg(std::vector<Key>(splitters_), std::move(takes[j]), 0, 0);
      comm.post(rank, dst, tag(kTagSplitters), std::move(smsg), bytes);
    }
    co_return;
  }

  // Member side of kHistogramRefine: answer the master's counting and draw
  // requests in lockstep until the done frame arrives. Requests carry a
  // sequence number so a duplicating fabric's redelivered requests are
  // dropped instead of answered twice (the master additionally dedups
  // replies by source and sequence).
  sim::Task<void> serve_refinement(rt::Machine& m, const AttemptCtx& ctx,
                                   const std::vector<Key>& local,
                                   std::size_t n) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    const std::size_t master = ctx.scope[0];
    std::uint64_t last_seq = 0;
    for (;;) {
      auto req = co_await recv_sort(m, ctx, tag(kTagProbe), nullptr, nullptr);
      PGXD_CHECK_MSG(req.src == master && req.payload.counts.size() >= 2,
                     "malformed histogram probe frame");
      const std::uint64_t op = req.payload.counts[0];
      const std::uint64_t seq = req.payload.counts[1];
      if (op == kProbeDone) co_return;
      if (seq <= last_seq) continue;  // duplicating fabric: stale copy
      last_seq = seq;
      if (op == kProbeCount) {
        const std::vector<Key>& probes = req.payload.keys;
        std::vector<std::uint64_t> lo, hi;
        sort::count_ranks<Key, Comp>(local, probes, lo, hi, comp_);
        co_await m.compute(m.cost().histogram_round_time(n, probes.size()));
        std::vector<std::uint64_t> reply;
        reply.reserve(1 + 2 * probes.size());
        reply.push_back(seq);
        reply.insert(reply.end(), lo.begin(), lo.end());
        reply.insert(reply.end(), hi.begin(), hi.end());
        const std::uint64_t bytes = reply.size() * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        comm.post(rank, master, tag(kTagReply),
                  Msg::of_counts(std::move(reply)), bytes);
      } else {
        PGXD_CHECK_MSG(op == kProbeDraw, "unknown histogram probe op");
        const std::vector<Key>& ser = req.payload.keys;
        PGXD_CHECK(ser.size() % 2 == 0 &&
                   req.payload.counts.size() == 2 + ser.size() / 2);
        std::vector<sort::RefineInterval<Key>> ivs(ser.size() / 2);
        for (std::size_t i = 0; i < ivs.size(); ++i) {
          const std::uint64_t f = req.payload.counts[2 + i];
          ivs[i].lo = ser[2 * i];
          ivs[i].hi = ser[2 * i + 1];
          ivs[i].has_lo = (f & 1) != 0;
          ivs[i].has_hi = (f & 2) != 0;
        }
        std::vector<Key> drawn = sort::draw_candidates<Key, Comp>(
            local, ivs, sort::kDrawPerInterval, comp_);
        co_await m.charge_binary_search(n, 2 * ivs.size());
        std::vector<std::uint64_t> hdr;
        hdr.push_back(seq);
        const std::uint64_t bytes =
            drawn.size() * sizeof(Key) + sizeof(std::uint64_t);
        note_control_bytes(bytes);
        Msg reply(std::move(drawn), std::move(hdr), 0, 0);
        comm.post(rank, master, tag(kTagReply), std::move(reply), bytes);
      }
    }
  }

  // One member's pipeline for one attempt, in member-index space: all
  // per-source bookkeeping is indexed 0..q-1 over ctx.members; provenance
  // and endpoints stay in physical rank space.
  sim::Task<void> sort_attempt_impl(rt::Machine& m, AttemptCtx ctx) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    const std::size_t p = cluster_.size();
    const std::size_t q = ctx.members.size();
    const std::size_t master = ctx.members[0];
    // Physical rank -> member index (q = not a member of this attempt).
    std::vector<std::size_t> midx(p, q);
    for (std::size_t j = 0; j < q; ++j) midx[ctx.members[j]] = j;
    const std::size_t idx = midx[rank];
    PGXD_CHECK_MSG(idx < q, "sort attempt spawned on a non-member rank");
    auto& sim = cluster_.simulator();
    auto& mem = m.memory();
    MachineStats& ms = stats_.machines[rank];
    obs::MetricsRegistry& reg = metrics_[rank];
    const bool telemetry = cfg_.telemetry;
    sim::SimTime mark = sim.now();
    // Closes the current paper step: per-step timing, a trace span tagged
    // with the bytes the step moved, and (telemetry on) a step-duration
    // gauge in the rank's registry. Accumulating (+=) because the two-level
    // scheme visits the sampling..exchange steps twice — once per level.
    auto stamp = [&](Step s, std::uint64_t bytes = 0) {
      ms.steps[s] += sim.now() - mark;
      if (trace_) trace_->record(rank, step_name(s), mark, sim.now(), bytes);
      if (telemetry) {
        reg.gauge(std::string("sort.step.") + step_metric_suffix(s) + "_ns")
            .set(static_cast<double>(ms.steps[s]));
        reg.counter(std::string("sort.step.") + step_metric_suffix(s) +
                    "_bytes")
            .inc(bytes);
      }
      mark = sim.now();
    };

    // ---- Step 1: local sort ------------------------------------------------
    // Provenance convention: an element's previous location is its position
    // in its previous machine's *locally sorted* sequence (what the
    // exchange actually ships; receivers reconstruct indices from chunk
    // offsets, so provenance never rides the wire).
    const std::vector<Key>& shard =
        recovery_active_ ? attempt_input_[rank] : input_[rank];
    const std::size_t n = shard.size();
    std::vector<Key> local = shard;
    {
      // Scratch for the in-node sort (the Fig. 2 ping-pong buffer / radix
      // scatter buffer).
      rt::TempAlloc scratch_mem(mem, n * sizeof(Key));
      const sort::LocalSortStats ls =
          sort::local_sort(local, cfg_.local_sort, comp_);
      if (ls.used_radix) {
        co_await m.charge_local_radix_sort(n, ls.radix_passes);
        if (telemetry) {
          reg.counter("sort.local.radix_sorts").inc(1);
          reg.counter("sort.local.radix_passes").inc(ls.radix_passes);
        }
      } else {
        co_await m.charge_local_parallel_sort(n);
      }
    }
    if (telemetry) reg.counter("sort.local.items").inc(n);
    stamp(Step::kLocalSort, n * sizeof(Key));

    // ---- Partition scope ----------------------------------------------------
    // Flat schemes partition once over the whole membership. kTwoLevelAms
    // first routes whole key buckets between ~sqrt(q) contiguous rank
    // groups (level 1: one partner per foreign group, so per-rank fan-out
    // is ~sqrt(q) instead of q), then runs steps (2)-(6) within this rank's
    // group. Group contiguity plus the ordered coarse splitters keep the
    // global output sorted in rank order.
    std::vector<std::size_t> scope = ctx.members;
    // After a level-1 exchange, elements of `local` originate from other
    // ranks' shards: `lprov[i]` records element i's true origin (pack_prov)
    // so the group exchange can ship it and the final provenance — and the
    // exactly-once audit — still point at original shard positions.
    std::vector<std::uint64_t> lprov;
    bool two_hop = false;
    if (cfg_.partition == PartitionScheme::kTwoLevelAms) {
      const sort::AmsLayout layout = sort::ams_layout(q);
      part_groups_ = layout.groups;
      if (layout.groups > 1) {
        const std::size_t g_me = layout.group_of(idx);

        // Level-1 sampling: the same regular-sample machinery, but the
        // master only needs groups-1 coarse splitters out of it.
        const std::uint64_t l1_sample_count =
            sample_budget(q, n, /*histogram=*/false);
        std::vector<Key> samples =
            sort::regular_samples<Key>(local, l1_sample_count);
        ms.sample_count += samples.size();
        co_await m.charge_copy(samples.size());
        if (rank != master) {
          // prov_base carries the shard size so the master can weight
          // samples from unequal shards.
          const std::uint64_t bytes = samples.size() * sizeof(Key);
          note_control_bytes(bytes);
          co_await comm.send(rank, master, tag(kTagL1Samples),
                             Msg::of_data(samples, n, 0), bytes);
        }
        if (telemetry)
          reg.counter("sort.sampling.samples").inc(samples.size());
        stamp(Step::kSampling, samples.size() * sizeof(Key));

        std::vector<Key> gsplit;
        if (rank == master) {
          std::vector<sort::WeightedSample<Key>> gpool;
          auto add_samples = [&gpool](const std::vector<Key>& keys,
                                      std::uint64_t shard_n) {
            if (keys.empty()) return;
            const double w = static_cast<double>(shard_n) /
                             static_cast<double>(keys.size());
            for (const auto& k : keys)
              gpool.push_back(sort::WeightedSample<Key>{k, w});
          };
          add_samples(samples, n);
          std::vector<bool> sampled(q, false);
          sampled[idx] = true;
          for (std::size_t distinct = 1; distinct < q;) {
            auto msg = co_await recv_sort(m, ctx, tag(kTagL1Samples), nullptr,
                                          nullptr);
            const std::size_t sj = midx[msg.src];
            PGXD_CHECK_MSG(sj < q, "level-1 samples from a rank outside the "
                                   "attempt membership");
            if (sampled[sj]) continue;
            sampled[sj] = true;
            ++distinct;
            add_samples(msg.payload.keys, msg.payload.prov_base);
          }
          {
            rt::TempAlloc pool_mem(mem, gpool.size() * sizeof(Key) * 2);
            std::sort(gpool.begin(), gpool.end(),
                      [this](const sort::WeightedSample<Key>& a,
                             const sort::WeightedSample<Key>& b) {
                        return comp_(a.key, b.key);
                      });
            co_await m.compute_parallel(m.cost().sort_time(gpool.size()));
            gsplit = sort::select_splitters_weighted<Key, Comp>(
                gpool, layout.groups, comp_);
          }
          for (std::size_t j = 0; j < q; ++j) {
            const std::size_t dst = ctx.members[j];
            const std::uint64_t bytes = gsplit.size() * sizeof(Key);
            if (dst != master) note_control_bytes(bytes);
            comm.post(master, dst, tag(kTagGroupSplit), Msg::of_keys(gsplit),
                      bytes);
          }
        }
        auto gmsg = co_await recv_sort(m, ctx, tag(kTagGroupSplit), nullptr,
                                       nullptr);
        gsplit = std::move(gmsg.payload.keys);
        stamp(Step::kSplitterSelect, gsplit.size() * sizeof(Key));

        // Level-1 plan: one bucket per group, with the duplicate-splitter
        // investigator balancing duplicate runs across group boundaries.
        PartitionPlan gplan = plan_partition<Key, Comp>(
            local, gsplit, cfg_.use_investigator, comp_);
        ms.searches += gplan.searches;
        ms.duplicate_groups += gplan.duplicate_groups;
        co_await m.charge_binary_search(n, gplan.searches);

        // Announce bucket sizes: a single u64 to each foreign group's
        // partner. Receivers derive their expected sender set from the
        // layout alone, so zero-sized buckets still need the frame.
        const std::vector<std::uint64_t> gsizes = plan_sizes(gplan);
        for (std::size_t g = 0; g < layout.groups; ++g) {
          if (g == g_me) continue;
          const std::size_t dst = ctx.members[layout.partner(idx, g)];
          std::vector<std::uint64_t> one;
          one.push_back(gsizes[g]);
          const std::uint64_t bytes = sizeof(std::uint64_t);
          note_control_bytes(bytes);
          comm.post(rank, dst, tag(kTagL1Counts),
                    Msg::of_counts(std::move(one)), bytes);
        }
        std::vector<std::size_t> senders;
        for (std::size_t k = 0; k < q; ++k)
          if (layout.group_of(k) != g_me && layout.partner(k, g_me) == idx)
            senders.push_back(k);
        std::vector<std::uint64_t> bucket_n(q, 0);
        bucket_n[idx] = gsizes[g_me];
        {
          std::vector<bool> counted(q, false);
          for (std::size_t got = 0; got < senders.size();) {
            auto msg = co_await recv_sort(m, ctx, tag(kTagL1Counts), nullptr,
                                          nullptr);
            PGXD_CHECK(msg.payload.counts.size() == 1);
            const std::size_t sj = midx[msg.src];
            PGXD_CHECK_MSG(sj < q && layout.group_of(sj) != g_me &&
                               layout.partner(sj, g_me) == idx,
                           "level-1 counts from an unexpected sender");
            if (counted[sj]) continue;
            counted[sj] = true;
            ++got;
            bucket_n[sj] = msg.payload.counts[0];
          }
        }
        stamp(Step::kPartitionPlan, layout.groups * sizeof(std::uint64_t));

        // Level-1 bucket exchange: one message per (sender, foreign group)
        // pair — O(q * sqrt(q)) messages cluster-wide instead of O(q^2).
        std::uint64_t l1_wire_sent = 0;
        for (std::size_t g = 0; g < layout.groups; ++g) {
          if (g == g_me) continue;
          const std::size_t dst = ctx.members[layout.partner(idx, g)];
          const std::size_t lo = gplan.bounds[g];
          const std::size_t hi = gplan.bounds[g + 1];
          if (lo == hi) continue;
          std::vector<Key> bucket(
              local.begin() + static_cast<std::ptrdiff_t>(lo),
              local.begin() + static_cast<std::ptrdiff_t>(hi));
          const std::uint64_t bytes =
              bucket.size() * kDataWireBytesPerKey + kChunkHeaderBytes;
          note_data_bytes(bytes);
          ms.sent_elements += bucket.size();
          l1_wire_sent += bytes;
          co_await m.charge_copy(bucket.size());
          comm.post(rank, dst, tag(kTagL1Data),
                    Msg::of_data(std::move(bucket), lo, 0), bytes);
        }
        // Contributors to this rank's group-local array, in member-index
        // order, so the merged result is deterministic under any arrival
        // order.
        std::vector<std::size_t> contrib;
        for (std::size_t k = 0; k < q; ++k)
          if (bucket_n[k] > 0) contrib.push_back(k);
        std::vector<std::size_t> roff(contrib.size() + 1, 0);
        for (std::size_t c = 0; c < contrib.size(); ++c)
          roff[c + 1] = roff[c] + bucket_n[contrib[c]];
        const std::size_t l1_total = roff.back();
        std::vector<Key> merged(l1_total);
        // Origin of each merged element: a level-1 bucket is a contiguous
        // slice of its sender's locally sorted shard, so origin indices are
        // reconstructed from the sender rank and the bucket's prov_base —
        // provenance still costs zero bytes on this hop.
        std::vector<std::uint64_t> mprov(l1_total);
        std::size_t expect_msgs = 0;
        for (std::size_t c = 0; c < contrib.size(); ++c) {
          if (contrib[c] != idx) {
            ++expect_msgs;
            continue;
          }
          std::copy(
              local.begin() + static_cast<std::ptrdiff_t>(gplan.bounds[g_me]),
              local.begin() +
                  static_cast<std::ptrdiff_t>(gplan.bounds[g_me + 1]),
              merged.begin() + static_cast<std::ptrdiff_t>(roff[c]));
          for (std::size_t i = 0; i < bucket_n[idx]; ++i)
            mprov[roff[c] + i] = pack_prov(rank, gplan.bounds[g_me] + i);
        }
        co_await m.charge_copy(bucket_n[idx]);
        {
          std::vector<bool> placed_from(q, false);
          std::uint64_t l1_recv = 0;
          for (std::size_t got = 0; got < expect_msgs;) {
            auto msg = co_await recv_sort(m, ctx, tag(kTagL1Data), nullptr,
                                          nullptr);
            const std::size_t sj = midx[msg.src];
            PGXD_CHECK_MSG(sj < q, "level-1 bucket from a rank outside the "
                                   "attempt membership");
            if (placed_from[sj]) continue;  // duplicating fabric: drop copy
            placed_from[sj] = true;
            ++got;
            const auto it =
                std::lower_bound(contrib.begin(), contrib.end(), sj);
            PGXD_CHECK_MSG(it != contrib.end() && *it == sj &&
                               msg.payload.keys.size() == bucket_n[sj],
                           "level-1 bucket does not match its announced size");
            const auto c = static_cast<std::size_t>(it - contrib.begin());
            std::copy(msg.payload.keys.begin(), msg.payload.keys.end(),
                      merged.begin() + static_cast<std::ptrdiff_t>(roff[c]));
            for (std::size_t i = 0; i < msg.payload.keys.size(); ++i)
              mprov[roff[c] + i] =
                  pack_prov(msg.src, msg.payload.prov_base + i);
            l1_recv += msg.payload.keys.size();
            co_await m.charge_copy(msg.payload.keys.size());
          }
          ms.received_elements += l1_recv;
          part_level1_items_ += l1_recv;
          if (telemetry)
            reg.counter("sort.partition.level1_items").inc(l1_recv);
        }
        local = std::move(merged);
        // Re-establish the sorted-local invariant over the received runs,
        // carrying each element's origin through the same permutation.
        {
          PGXD_CHECK_MSG(l1_total <= std::numeric_limits<std::uint32_t>::max(),
                         "AMS level-1 merge: a group-local array beyond u32 "
                         "indexing is unsupported");
          std::vector<std::size_t> bounds(roff.begin(), roff.end());
          std::vector<std::uint32_t> perm(l1_total);
          std::iota(perm.begin(), perm.end(), 0u);
          std::vector<Key> kscr;
          std::vector<std::uint32_t> pscr;
          rt::TempAlloc scratch_mem(
              mem, l1_total * (sizeof(Key) + 2 * sizeof(std::uint32_t)));
          const auto res = sort::balanced_merge_soa(
              local, perm, std::move(bounds), kscr, pscr, comp_);
          if (res.in_scratch) local = std::move(kscr);
          const std::uint32_t* mp = (res.in_scratch ? pscr : perm).data();
          std::vector<std::uint64_t> permuted(l1_total);
          for (std::size_t i = 0; i < l1_total; ++i)
            permuted[i] = mprov[mp[i]];
          mprov = std::move(permuted);
          co_await m.charge_balanced_merge(
              l1_total, std::max<std::size_t>(1, contrib.size()));
        }
        lprov = std::move(mprov);
        two_hop = true;
        stamp(Step::kExchange, l1_wire_sent);
        scope.assign(
            ctx.members.begin() + static_cast<std::ptrdiff_t>(
                                      layout.start[g_me]),
            ctx.members.begin() + static_cast<std::ptrdiff_t>(
                                      layout.start[g_me + 1]));
      }
    }

    // Steps (2)-(6) over the partition scope.
    AttemptCtx pctx(ctx.attempt, ctx.members, std::move(scope));
    co_await partition_phase(m, std::move(pctx), std::move(local),
                             std::move(lprov), two_hop);
    co_return;
  }

  // Not a coroutine (GCC 12 pattern).
  sim::Task<void> partition_phase(rt::Machine& m, AttemptCtx ctx,
                                  std::vector<Key> local,
                                  std::vector<std::uint64_t> lprov = {},
                                  bool two_hop = false) {
    return partition_phase_impl(m, std::move(ctx), std::move(local),
                                std::move(lprov), two_hop);
  }

  // Steps (2)-(6) of the pipeline over ctx.scope — the full membership for
  // the flat schemes, this rank's group after the AMS level-1 exchange. All
  // per-source bookkeeping is indexed 0..q-1 over ctx.scope; aborts and the
  // failure detector keep watching the full membership through recv_sort.
  sim::Task<void> partition_phase_impl(rt::Machine& m, AttemptCtx ctx,
                                       std::vector<Key> local,
                                       std::vector<std::uint64_t> lprov,
                                       bool two_hop) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    const std::size_t p = cluster_.size();
    const std::size_t q = ctx.scope.size();
    const std::size_t master = ctx.scope[0];
    // Physical rank -> scope index (q = not in this rank's scope).
    std::vector<std::size_t> midx(p, q);
    for (std::size_t j = 0; j < q; ++j) midx[ctx.scope[j]] = j;
    const std::size_t idx = midx[rank];
    PGXD_CHECK_MSG(idx < q, "partition phase running on a non-scope rank");
    auto& sim = cluster_.simulator();
    auto& mem = m.memory();
    MachineStats& ms = stats_.machines[rank];
    obs::MetricsRegistry& reg = metrics_[rank];
    const bool telemetry = cfg_.telemetry;
    const std::size_t n = local.size();
    // Explicit-provenance mode: a property of the attempt (the level-1
    // exchange ran), shared by every scope member — a rank with an empty
    // local array still receives origin planes from its peers.
    const bool xprov = two_hop;
    PGXD_CHECK(lprov.size() == (xprov ? n : 0));
    const bool histogram =
        cfg_.partition == PartitionScheme::kHistogramRefine;
    sim::SimTime mark = sim.now();
    auto stamp = [&](Step s, std::uint64_t bytes = 0) {
      ms.steps[s] += sim.now() - mark;
      if (trace_) trace_->record(rank, step_name(s), mark, sim.now(), bytes);
      if (telemetry) {
        reg.gauge(std::string("sort.step.") + step_metric_suffix(s) + "_ns")
            .set(static_cast<double>(ms.steps[s]));
        reg.counter(std::string("sort.step.") + step_metric_suffix(s) +
                    "_bytes")
            .inc(bytes);
      }
      mark = sim.now();
    };

    // ---- Step 2: regular samples to the master ------------------------------
    const std::uint64_t sample_count = sample_budget(q, n, histogram);
    std::vector<Key> samples = sort::regular_samples<Key>(local, sample_count);
    ms.sample_count += samples.size();
    co_await m.charge_copy(samples.size());
    if (rank != master) {
      // prov_base carries the shard size so the master can weight samples
      // from unequal shards (Spark's RangePartitioner does the same).
      const std::uint64_t bytes = samples.size() * sizeof(Key);
      note_control_bytes(bytes);
      co_await comm.send(rank, master, tag(kTagSamples),
                         Msg::of_data(samples, n, 0), bytes);
    }
    if (telemetry) reg.counter("sort.sampling.samples").inc(samples.size());
    stamp(Step::kSampling, samples.size() * sizeof(Key));

    // ---- Step 3: splitter determination -------------------------------------
    // kOneLevelSample (and AMS level 2): the paper's one-shot master
    // selection. kHistogramRefine: the master certifies candidate splitters
    // by their exact global ranks over kTagProbe/kTagReply rounds until
    // every boundary is within the epsilon target. Either way the final
    // splitters arrive on kTagSplitters, so steps (4)-(6) are
    // scheme-agnostic.
    if (histogram) {
      if (rank == master) {
        co_await refine_splitters(m, ctx, local, samples, n);
      } else {
        co_await serve_refinement(m, ctx, local, n);
      }
    } else if (rank == master) {
      // Gather all sample vectors into the master's one read buffer. Each
      // sample represents shard_size/sample_count elements of its shard, so
      // splitter selection weights samples accordingly — shards may be of
      // very different sizes (e.g. graph partitions balanced by edges).
      std::vector<sort::WeightedSample<Key>> pool;
      auto add_samples = [&pool](const std::vector<Key>& keys,
                                 std::uint64_t shard_n) {
        if (keys.empty()) return;
        const double w = static_cast<double>(shard_n) /
                         static_cast<double>(keys.size());
        for (const auto& k : keys)
          pool.push_back(sort::WeightedSample<Key>{k, w});
      };
      add_samples(samples, n);
      // Wait for q-1 distinct sources, not q-1 messages: on a duplicating
      // fabric without reliable delivery a shard's samples can arrive
      // twice, and counting messages would starve another shard.
      std::vector<bool> sampled(q, false);
      sampled[idx] = true;
      for (std::size_t distinct = 1; distinct < q;) {
        auto msg = co_await recv_sort(m, ctx, tag(kTagSamples), nullptr,
                                      nullptr);
        const std::size_t sj = midx[msg.src];
        PGXD_CHECK_MSG(sj < q,
                       "samples from a rank outside the attempt membership");
        if (sampled[sj]) continue;
        sampled[sj] = true;
        ++distinct;
        add_samples(msg.payload.keys, msg.payload.prov_base);
      }
      {
        rt::TempAlloc pool_mem(mem, pool.size() * sizeof(Key) * 2);
        std::sort(pool.begin(), pool.end(),
                  [this](const sort::WeightedSample<Key>& a,
                         const sort::WeightedSample<Key>& b) {
                    return comp_(a.key, b.key);
                  });
        co_await m.compute_parallel(m.cost().sort_time(pool.size()));
        splitters_ = sort::select_splitters_weighted<Key, Comp>(pool, q, comp_);
      }
      for (std::size_t j = 0; j < q; ++j) {
        const std::size_t dst = ctx.scope[j];
        const std::uint64_t bytes = splitters_.size() * sizeof(Key);
        if (dst != master) note_control_bytes(bytes);
        comm.post(master, dst, tag(kTagSplitters), Msg::of_keys(splitters_),
                  bytes);
      }
    }
    auto splitters_msg = co_await recv_sort(m, ctx, tag(kTagSplitters),
                                            nullptr, nullptr);
    const std::vector<Key> splitters = std::move(splitters_msg.payload.keys);
    const std::vector<std::uint64_t> dup_takes =
        std::move(splitters_msg.payload.counts);
    stamp(Step::kSplitterSelect, splitters.size() * sizeof(Key));

    // ---- Step 4: partition plan + counts exchange ----------------------------
    PartitionPlan plan;
    if (histogram && !splitters.empty() &&
        dup_takes.size() == splitters.size()) {
      // Exact-rank bounds from the refinement's resolution round: every
      // duplicate of splitter i sits right of lower_bound, and the
      // master's take says how many of ours move left of the boundary.
      plan.bounds.assign(q + 1, 0);
      plan.bounds[q] = n;
      for (std::size_t i = 0; i < splitters.size(); ++i) {
        const auto lb = static_cast<std::size_t>(
            std::lower_bound(local.begin(), local.end(), splitters[i],
                             comp_) -
            local.begin());
        const auto ub = static_cast<std::size_t>(
            std::upper_bound(local.begin(), local.end(), splitters[i],
                             comp_) -
            local.begin());
        const std::size_t b =
            std::min(ub, lb + static_cast<std::size_t>(dup_takes[i]));
        plan.bounds[i + 1] = std::max(b, plan.bounds[i]);
      }
      plan.searches = 2 * splitters.size();
    } else {
      plan = plan_partition<Key, Comp>(local, splitters,
                                       cfg_.use_investigator, comp_);
    }
    ms.searches += plan.searches;
    ms.duplicate_groups += plan.duplicate_groups;
    co_await m.charge_binary_search(n, plan.searches);

    // Slim counts: each destination only needs its own element count, so
    // one u64 travels per (sender, receiver) pair — not the full q-entry
    // vector, whose transient bytes would grow O(q^3) cluster-wide. Past
    // kBatchedCountsScope members that is q^2 tiny messages cluster-wide,
    // and per-message overhead (headers, acks, event scheduling) dwarfs
    // the payload — so large scopes relay the count matrix through the
    // scope master instead: 2(q-1) q-entry messages, 2q^2 u64 transient.
    const std::vector<std::uint64_t> send_counts = plan_sizes(plan);
    std::vector<std::uint64_t> recv_counts(q, 0);
    if (q > kBatchedCountsScope) {
      if (rank == master) {
        std::vector<std::vector<std::uint64_t>> matrix(q);
        matrix[idx] = send_counts;
        std::vector<bool> got(q, false);
        got[idx] = true;
        for (std::size_t distinct = 1; distinct < q;) {
          auto msg =
              co_await recv_sort(m, ctx, tag(kTagCounts), nullptr, nullptr);
          const std::size_t sj = midx[msg.src];
          PGXD_CHECK_MSG(sj < q,
                         "counts from a rank outside the attempt membership");
          if (got[sj]) continue;
          PGXD_CHECK(msg.payload.counts.size() == q);
          got[sj] = true;
          ++distinct;
          matrix[sj] = std::move(msg.payload.counts);
        }
        for (std::size_t j = 0; j < q; ++j) {
          std::vector<std::uint64_t> col(q);
          for (std::size_t s = 0; s < q; ++s) col[s] = matrix[s][j];
          if (j == idx) {
            recv_counts = std::move(col);
            continue;
          }
          const std::uint64_t bytes = q * sizeof(std::uint64_t);
          note_control_bytes(bytes);
          comm.post(rank, ctx.scope[j], tag(kTagCounts),
                    Msg::of_counts(std::move(col)), bytes);
        }
      } else {
        const std::uint64_t bytes = q * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        comm.post(rank, master, tag(kTagCounts),
                  Msg::of_counts(std::vector<std::uint64_t>(send_counts)),
                  bytes);
        for (;;) {
          auto msg =
              co_await recv_sort(m, ctx, tag(kTagCounts), nullptr, nullptr);
          if (msg.src != master) continue;  // stray frame: master's is law
          PGXD_CHECK(msg.payload.counts.size() == q);
          recv_counts = std::move(msg.payload.counts);
          break;
        }
      }
    } else {
      for (std::size_t j = 0; j < q; ++j) {
        const std::size_t dst = ctx.scope[j];
        if (dst == rank) continue;
        std::vector<std::uint64_t> one;
        one.push_back(send_counts[j]);
        const std::uint64_t bytes = sizeof(std::uint64_t);
        note_control_bytes(bytes);
        comm.post(rank, dst, tag(kTagCounts), Msg::of_counts(std::move(one)),
                  bytes);
      }
      // Receive everyone's counts; recv_counts[j] = elements member j sends
      // us. As with the sample gather, wait for distinct sources so
      // duplicated counts messages cannot starve a source.
      recv_counts[idx] = send_counts[idx];
      std::vector<bool> counted(q, false);
      counted[idx] = true;
      for (std::size_t distinct = 1; distinct < q;) {
        auto msg =
            co_await recv_sort(m, ctx, tag(kTagCounts), nullptr, nullptr);
        PGXD_CHECK(msg.payload.counts.size() == 1);
        const std::size_t sj = midx[msg.src];
        PGXD_CHECK_MSG(sj < q,
                       "counts from a rank outside the attempt membership");
        if (counted[sj]) continue;
        counted[sj] = true;
        ++distinct;
        recv_counts[sj] = msg.payload.counts[0];
      }
    }
    if (telemetry) {
      reg.counter("sort.plan.searches").inc(plan.searches);
      reg.counter("sort.plan.duplicate_groups").inc(plan.duplicate_groups);
    }
    stamp(Step::kPartitionPlan, q * sizeof(std::uint64_t));

    // ---- Step 5: simultaneous send/receive ---------------------------------
    // "each processor knows how much data it will receive ... by applying
    // offsets for each received data entry" — offsets per source member:
    std::vector<std::size_t> offsets(q + 1, 0);
    for (std::size_t s = 0; s < q; ++s)
      offsets[s + 1] = offsets[s] + recv_counts[s];
    const std::size_t total_recv = offsets[q];

    auto& out = output_[rank];
    out.resize(total_recv);
    // Result keys + provenance live to the end of the sort: persistent.
    mem.alloc_persistent(total_recv * kStoredBytesPerItem);

    const std::uint64_t chunk_elems =
        cfg_.buffered_exchange
            ? std::max<std::uint64_t>(1, cfg_.read_buffer_bytes / kDataWireBytesPerKey)
            : std::numeric_limits<std::uint64_t>::max();

    // Per-source write cursors; arrival order across sources is irrelevant.
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);

    // Structure-of-arrays exchange+merge: the receiver stores bare keys at
    // their final offsets plus one range-start per source, merges keys with
    // a compact u32 permutation, and materializes Item records (key +
    // reconstructed provenance) once at the very end.
    PGXD_CHECK_MSG(total_recv <= std::numeric_limits<std::uint32_t>::max(),
                   "final merge: a partition beyond u32 indexing is "
                   "unsupported");
    const bool use_pool = cfg_.use_buffer_pool;
    // PGX.D keeps a fixed set of request buffers per machine; this is the
    // cluster-wide equivalent (the pool is shared — one address space).
    // Once this many leases are outstanding and the free list is dry, a
    // sender must recycle an arrived chunk before leasing another, which
    // bounds exchange allocations at O(q) instead of O(chunks).
    const std::int64_t pool_cap =
        static_cast<std::int64_t>(std::max<std::size_t>(2 * q, 8));
    // src_lo[s]: start of the (member s -> rank) range in s's locally
    // sorted sequence, learned from any of s's chunks (prov_base -
    // rel_offset). The provenance of the element at receive position pos is
    // then src_lo[s] + (pos - offsets[s]) for the s whose range contains it.
    std::vector<std::uint64_t> src_lo(q, 0);
    std::vector<Key> recv_keys(total_recv);
    std::optional<rt::TempAlloc> recv_keys_mem(std::in_place, mem,
                                               total_recv * sizeof(Key));
    // Explicit origin plane for the two-hop exchange.
    std::vector<std::uint64_t> recv_prov;
    std::optional<rt::TempAlloc> recv_prov_mem;
    if (xprov) {
      recv_prov.resize(total_recv);
      recv_prov_mem.emplace(mem, total_recv * sizeof(std::uint64_t));
    }

    // Self range: a local memory move, not fabric traffic.
    {
      const std::size_t lo = plan.bounds[idx];
      const std::size_t hi = plan.bounds[idx + 1];
      src_lo[idx] = lo;
      std::copy(local.begin() + static_cast<std::ptrdiff_t>(lo),
                local.begin() + static_cast<std::ptrdiff_t>(hi),
                recv_keys.begin() + static_cast<std::ptrdiff_t>(offsets[idx]));
      if (xprov)
        std::copy(
            lprov.begin() + static_cast<std::ptrdiff_t>(lo),
            lprov.begin() + static_cast<std::ptrdiff_t>(hi),
            recv_prov.begin() + static_cast<std::ptrdiff_t>(offsets[idx]));
      cursor[idx] += hi - lo;
      co_await m.charge_copy(hi - lo);
    }

    // Chunk dedup bitmap (replaces a per-source std::set of offsets): a
    // source's chunks sit at rel_offset = c * chunk_elems, so chunk c of
    // member s maps to bit c of that member's word range. O(q + chunks/64)
    // memory, zero allocations per chunk. Doubles as the straggler hedge's
    // missing-chunk ledger.
    std::vector<std::size_t> seen_base(q + 1, 0);
    for (std::size_t s = 0; s < q; ++s) {
      std::uint64_t nchunks = 0;
      if (s != idx && recv_counts[s] > 0)
        nchunks = cfg_.buffered_exchange
                      ? (recv_counts[s] + chunk_elems - 1) / chunk_elems
                      : 1;
      seen_base[s + 1] =
          seen_base[s] + static_cast<std::size_t>((nchunks + 63) / 64);
    }
    std::vector<std::uint64_t> seen_words(seen_base[q], 0);

    const std::size_t remote_expected = total_recv - recv_counts[idx];
    std::size_t remote_placed = 0;
    // Hold edges for deadlock *naming* (never detection): each peer that
    // still owes this rank chunks "holds" the rank's data mailbox until
    // its range is fully placed, and a pooled chunk in flight to dst means
    // dst "holds" a pool buffer. Mailbox holds are O(q) per rank, so they
    // are capped at kWaitGraphHoldScope members; past that a deadlock is
    // still detected and reported, just without per-peer attribution.
    auto& wg = cluster_.wait_graph();
    const bool track_holds = q <= kWaitGraphHoldScope;
    const auto mbox = sim::WaitResource::mailbox(rank, tag(kTagData));
    if (track_holds) {
      wg.clear_holds(mbox);  // stale holds from an aborted prior attempt
      for (std::size_t s = 0; s < q; ++s)
        if (s != idx && recv_counts[s] > 0) wg.add_hold(mbox, ctx.scope[s]);
    }
    // Wire bytes this rank put on the fabric during the exchange (span
    // metadata for the send/receive step).
    std::uint64_t exchange_wire_sent = 0;

    // Hot-loop instruments, resolved once: per-chunk telemetry is then a
    // pointer-guarded integer add.
    obs::Counter* c_chunks_sent = nullptr;
    obs::Counter* c_chunks_recv = nullptr;
    obs::Counter* c_dup_chunks = nullptr;
    obs::Counter* c_items_sent = nullptr;
    obs::Counter* c_items_recv = nullptr;
    obs::Counter* c_wire_sent = nullptr;
    obs::LogHistogram* h_chunk_elems = nullptr;
    if (telemetry) {
      c_chunks_sent = &reg.counter("sort.exchange.chunks_sent");
      c_chunks_recv = &reg.counter("sort.exchange.chunks_received");
      c_dup_chunks = &reg.counter("sort.exchange.duplicate_chunks");
      c_items_sent = &reg.counter("sort.exchange.items_sent");
      c_items_recv = &reg.counter("sort.exchange.items_received");
      c_wire_sent = &reg.counter("sort.exchange.wire_bytes_sent");
      h_chunk_elems = &reg.histogram("sort.exchange.chunk_elems");
    }

    // Places one arriving chunk — dedup, copy to its final offset,
    // provenance/range-start bookkeeping, buffer return to the pool — and
    // returns the elements placed (0 for a duplicate). The caller charges
    // the simulated copy cost.
    auto place_chunk = [&](auto& msg) -> std::size_t {
      PGXD_CHECK(msg.src != rank);
      const std::size_t sj = midx[msg.src];
      PGXD_CHECK_MSG(sj < q,
                     "data chunk from a rank outside the attempt membership");
      auto& keys = msg.payload.keys;
      const std::uint64_t cidx = msg.payload.rel_offset / chunk_elems;
      const std::size_t word =
          seen_base[sj] + static_cast<std::size_t>(cidx / 64);
      PGXD_CHECK_MSG(word < seen_base[sj + 1],
                     "chunk offset beyond its source's announced range");
      const std::uint64_t bit = std::uint64_t{1} << (cidx % 64);
      if (c_chunks_recv) c_chunks_recv->inc();
      if (seen_words[word] & bit) {
        ++ms.duplicate_chunks;
        if (c_dup_chunks) c_dup_chunks->inc();
        if (use_pool) {
          pool_.release(std::move(keys));
          wg.remove_hold(sim::WaitResource::pool(), rank);
        }
        return 0;
      }
      seen_words[word] |= bit;
      const std::size_t at = offsets[sj] + msg.payload.rel_offset;
      PGXD_CHECK_MSG(at + keys.size() <= offsets[sj + 1],
                     "chunk overruns its source's receive range");
      src_lo[sj] = msg.payload.prov_base - msg.payload.rel_offset;
      std::copy(keys.begin(), keys.end(),
                recv_keys.begin() + static_cast<std::ptrdiff_t>(at));
      if (xprov) {
        PGXD_CHECK_MSG(msg.payload.counts.size() == keys.size(),
                       "two-hop data chunk arrived without its origin plane");
        std::copy(msg.payload.counts.begin(), msg.payload.counts.end(),
                  recv_prov.begin() + static_cast<std::ptrdiff_t>(at));
      }
      const std::size_t placed = keys.size();
      cursor[sj] += placed;
      remote_placed += placed;
      if (track_holds && cursor[sj] == offsets[sj + 1])
        wg.remove_hold(mbox, ctx.scope[sj]);
      if (c_items_recv) c_items_recv->inc(placed);
      if (use_pool) {
        pool_.release(std::move(keys));
        wg.remove_hold(sim::WaitResource::pool(), rank);
      }
      return placed;
    };

    // Sender-side service window for straggler re-requests, and receiver-
    // side progress tracking for hedging; both dormant unless a recovery
    // supervisor is driving this attempt.
    ExchangeState xs;
    xs.local = &local;
    xs.plan = &plan;
    if (xprov) xs.lprov = &lprov;
    xs.chunk_elems = chunk_elems;
    xs.use_pool = use_pool;
    RecvProgress rp;
    rp.seen_base = &seen_base;
    rp.seen_words = &seen_words;
    rp.recv_counts = &recv_counts;
    rp.chunk_elems = chunk_elems;
    rp.last_arrival = sim.now();

    // Sends: lease a chunk buffer from the pool, pack it from a span slice
    // of the local array (one reserve either way), and post asynchronously
    // (async mode) or send blocking + barrier (bulk-synchronous ablation).
    // In async mode the loop also drains chunks that have already arrived —
    // the paper's "simultaneous asynchronous send/receive" — which both
    // overlaps the copies and returns buffers to the pool for re-lease.
    // In a scoped (AMS group) exchange the cluster-wide pool is shared by
    // several concurrent exchanges, so "a buffer is outstanding" no longer
    // implies "a chunk is in flight to a member of *this* exchange" — a
    // whole group parked in the backpressure recv before posting any send
    // would sleep through the pool refilling. Scoped senders therefore only
    // block to drain chunks that have actually arrived and otherwise let
    // the pool allocate fresh.
    const bool scoped_exchange = q < ctx.members.size();
    for (std::size_t step = 1; step < q; ++step) {
      // Ring order starting after own member index spreads incast across
      // receivers.
      const std::size_t dstj = (idx + step) % q;
      const std::size_t dst = ctx.scope[dstj];
      const std::size_t lo = plan.bounds[dstj];
      const std::size_t hi = plan.bounds[dstj + 1];
      for (std::size_t at = lo; at < hi;) {
        // Backpressure: with the pool dry and the outstanding cap reached,
        // block on a receive — placing the arrived chunk returns its buffer
        // — instead of allocating yet another. Deadlock-free: we only block
        // while peers still owe us data, and (in the whole-membership case)
        // every outstanding buffer is in flight to (or queued at) a machine
        // that is still draining.
        while (use_pool && cfg_.async_exchange &&
               remote_placed < remote_expected && pool_.free_buffers() == 0 &&
               pool_.outstanding() >= pool_cap &&
               (!scoped_exchange || !cfg_.scoped_pending_guard ||
                comm.pending(rank, tag(kTagData)) > 0)) {
          // Annotation edge: while parked here the rank is really waiting
          // for a pool buffer, not just its mailbox. Never counted by the
          // detector; it only enriches a deadlock cycle's naming. The
          // guard's destructor drops the edge even when recv_sort throws
          // (crash / abort translation).
          PoolWaitGuard pw{&cluster_.wait_graph(),
                           cluster_.wait_graph().begin_wait(
                               rank, sim::WaitResource::pool(),
                               /*annotation=*/true)};
          auto msg = co_await recv_sort(m, ctx, tag(kTagData), &xs, &rp);
          const std::size_t placed = place_chunk(msg);
          if (placed > 0) co_await m.charge_copy(placed);
        }
        const std::size_t take =
            std::min<std::uint64_t>(hi - at, chunk_elems);
        const std::span<const Key> slice(local.data() + at, take);
        std::vector<Key> chunk =
            use_pool ? pool_.acquire(take) : std::vector<Key>();
        chunk.reserve(take);
        chunk.assign(slice.begin(), slice.end());
        std::vector<std::uint64_t> pchunk;
        if (xprov)
          pchunk.assign(lprov.begin() + static_cast<std::ptrdiff_t>(at),
                        lprov.begin() + static_cast<std::ptrdiff_t>(at + take));
        const std::uint64_t bytes =
            take * kDataWireBytesPerKey + kChunkHeaderBytes;
        note_data_bytes(bytes);
        ms.sent_elements += take;
        exchange_wire_sent += bytes;
        if (c_chunks_sent) {
          c_chunks_sent->inc();
          c_items_sent->inc(take);
          c_wire_sent->inc(bytes);
          h_chunk_elems->add(take);
        }
        co_await m.charge_copy(take);  // pack the request buffer
        if (use_pool) wg.add_hold(sim::WaitResource::pool(), dst);
        if (cfg_.async_exchange) {
          comm.post(rank, dst, tag(kTagData),
                    Msg(std::move(chunk), std::move(pchunk), at, at - lo),
                    bytes);
          while (remote_placed < remote_expected &&
                 comm.pending(rank, tag(kTagData)) > 0) {
            auto msg = co_await recv_sort(m, ctx, tag(kTagData), &xs, &rp);
            const std::size_t placed = place_chunk(msg);
            if (placed > 0) co_await m.charge_copy(placed);
          }
        } else {
          co_await comm.send(rank, dst, tag(kTagData),
                             Msg(std::move(chunk), std::move(pchunk), at,
                                 at - lo),
                             bytes);
        }
        at += take;
      }
    }
    if (!cfg_.async_exchange) co_await comm.barrier(rank);

    // Receives: place each incoming chunk at its source's base offset plus
    // the chunk's own relative offset — correct under any arrival order —
    // discarding chunks whose (src, chunk index) bit was already set, so
    // the loop stays correct when a duplicating fabric redelivers a chunk.
    // It counts placed *elements*, not messages.
    while (remote_placed < remote_expected) {
      auto msg = co_await recv_sort(m, ctx, tag(kTagData), &xs, &rp);
      const std::size_t placed = place_chunk(msg);
      if (placed > 0) co_await m.charge_copy(placed);
    }
    for (std::size_t s = 0; s < q; ++s)
      PGXD_CHECK_MSG(cursor[s] == offsets[s + 1],
                     "exchange delivered wrong element counts");
    ms.received_elements += total_recv;
    // The local pre-sorted array (and its origin plane) can be released
    // now; no recv_sort call below passes &xs, so no re-request can touch
    // the freed storage.
    local.clear();
    local.shrink_to_fit();
    lprov.clear();
    lprov.shrink_to_fit();
    stamp(Step::kExchange, exchange_wire_sent);

    // ---- Step 6: final merge ------------------------------------------------
    // Bare keys + u32 permutation merge as SoA planes; the output partition
    // is then written directly from the result planes — no staging
    // copy-back — with provenance reconstructed from each element's
    // pre-merge position.
    {
      const MergeAlgo merge_algo = cfg_.final_merge;
      std::vector<std::size_t> bounds(offsets.begin(), offsets.end());
      std::size_t nonempty_runs = 0;
      for (std::size_t s = 0; s < q; ++s)
        nonempty_runs += (recv_counts[s] > 0);
      const std::size_t runs = std::max<std::size_t>(1, nonempty_runs);
      std::vector<std::uint32_t> perm(total_recv);
      std::iota(perm.begin(), perm.end(), 0u);
      std::vector<Key> key_scratch;
      std::vector<std::uint32_t> perm_scratch;
      rt::TempAlloc scratch_mem(
          mem, total_recv * (sizeof(Key) + 2 * sizeof(std::uint32_t)));
      const Key* mk = nullptr;
      const std::uint32_t* mp = nullptr;
      if (merge_algo == MergeAlgo::kPairwiseTree) {
        // Fig. 2 pairwise tree: each level moves sizeof(Key) + 4 bytes per
        // element, ping-ponging between the planes and the scratch.
        const auto res = sort::balanced_merge_soa(
            recv_keys, perm, std::move(bounds), key_scratch, perm_scratch,
            comp_);
        mk = (res.in_scratch ? key_scratch : recv_keys).data();
        mp = (res.in_scratch ? perm_scratch : perm).data();
        co_await m.charge_balanced_merge(total_recv, runs);
      } else {
        // Loser-tree k-way merge, one move per element into the scratch
        // planes. kParallelKway cuts the output into per-thread ranges by
        // splitter search; the DES sorter has no real pool, so the ranges
        // run for real (sequentially here) with the simulated machine's
        // thread count while the cost model charges them as parallel.
        // kSequentialKway is the no-parallelism ablation: one loser tree
        // over the whole partition.
        const bool parallel = merge_algo == MergeAlgo::kParallelKway;
        const auto kres = sort::parallel_kway_merge_soa(
            recv_keys, perm, bounds, key_scratch, perm_scratch, comp_,
            /*pool=*/nullptr, /*ranges=*/parallel ? m.threads() : 1);
        mk = key_scratch.data();
        mp = perm_scratch.data();
        if (parallel) {
          if (telemetry) {
            reg.counter("sort.merge.kway_ranges").inc(kres.ranges);
            reg.counter("sort.merge.kway_select_rounds")
                .inc(kres.select_rounds);
          }
          co_await m.charge_parallel_kway_merge(total_recv, runs);
        } else {
          co_await m.charge_naive_kway_merge(total_recv, runs);
        }
      }
      for (std::size_t i = 0; i < total_recv; ++i) {
        const std::size_t pos = mp[i];
        if (xprov) {
          out[i] = ItemT{mk[i], unpack_prov(recv_prov[pos])};
          continue;
        }
        const std::size_t s =
            static_cast<std::size_t>(
                std::upper_bound(offsets.begin(), offsets.end(), pos) -
                offsets.begin()) -
            1;
        out[i] = ItemT{mk[i],
                       Provenance{static_cast<std::uint32_t>(ctx.scope[s]),
                                  src_lo[s] + (pos - offsets[s])}};
      }
      if (telemetry)
        reg.counter(std::string("sort.merge.algo.") +
                    merge_algo_name(merge_algo))
            .inc(1);
    }
    recv_keys = std::vector<Key>();
    recv_keys_mem.reset();
    recv_prov = std::vector<std::uint64_t>();
    recv_prov_mem.reset();
    stamp(Step::kFinalMerge, total_recv * kStoredBytesPerItem);

    // ---- Exactly-once audit -------------------------------------------------
    // Provenance makes delivery auditable: for every source, the previous
    // indices present in the merged output must be recv_counts[src]
    // distinct contiguous integers — any drop, duplicate, or misplacement
    // by the exchange (or the reliable-delivery layer under fault
    // injection, or a hedged re-send slipping past dedup) breaks that.
    // Pure host-side verification; costs no simulated time.
    if (xprov) {
      // Two-hop provenance names origin ranks anywhere in the attempt
      // membership (not just this scope), and the level-1 merge destroys
      // per-source contiguity — audit origin distinctness instead: a
      // dropped-then-rehedged or duplicated delivery shows up as a
      // repeated (machine, index) pair. Per partition the strongest
      // invariant is distinctness; cluster-wide coverage (every origin
      // index named exactly once) is checked after the run by
      // core::validate_sorted's exactly-once slot map.
      std::vector<std::vector<std::uint64_t>> prev_indices(p);
      for (const ItemT& item : out) {
        PGXD_CHECK(item.prov.prev_machine < p);
        prev_indices[item.prov.prev_machine].push_back(
            item.prov.prev_index);
      }
      std::uint64_t attributed = 0;
      for (std::size_t s = 0; s < p; ++s) {
        auto& v = prev_indices[s];
        attributed += v.size();
        std::sort(v.begin(), v.end());
        for (std::size_t i = 1; i < v.size(); ++i)
          PGXD_CHECK_MSG(v[i] != v[i - 1],
                         "exactly-once audit: an element was duplicated "
                         "in the two-hop exchange");
      }
      PGXD_CHECK(attributed == total_recv);
    } else {
      std::vector<std::vector<std::uint64_t>> prev_indices(q);
      for (std::size_t s = 0; s < q; ++s)
        prev_indices[s].reserve(recv_counts[s]);
      for (const ItemT& item : out) {
        PGXD_CHECK(item.prov.prev_machine < p);
        const std::size_t sj = midx[item.prov.prev_machine];
        PGXD_CHECK_MSG(sj < q,
                       "exactly-once audit: element attributed to a rank "
                       "outside the attempt membership");
        prev_indices[sj].push_back(item.prov.prev_index);
      }
      for (std::size_t s = 0; s < q; ++s) {
        PGXD_CHECK_MSG(prev_indices[s].size() == recv_counts[s],
                       "exactly-once audit: received element count from a "
                       "source disagrees with its announced count");
        std::sort(prev_indices[s].begin(), prev_indices[s].end());
        for (std::size_t i = 1; i < prev_indices[s].size(); ++i)
          PGXD_CHECK_MSG(prev_indices[s][i] == prev_indices[s][i - 1] + 1,
                         "exactly-once audit: an element was duplicated or "
                         "lost in the exchange");
      }
    }

    ms.peak_persistent_bytes = mem.peak_persistent();
    ms.peak_temp_bytes = mem.peak_temp();
    if (telemetry) {
      reg.counter("sort.load.items").inc(total_recv);
      reg.counter("sort.load.bytes").inc(total_recv * kStoredBytesPerItem);
      reg.gauge("sort.memory.peak_persistent_bytes")
          .set(static_cast<double>(ms.peak_persistent_bytes));
      reg.gauge("sort.memory.peak_temp_bytes")
          .set(static_cast<double>(ms.peak_temp_bytes));
    }
    co_return;
  }

  Cluster& cluster_;
  SortConfig cfg_;
  int base_tag_;
  Comp comp_;
  sim::Trace* trace_ = nullptr;
  std::vector<obs::MetricsRegistry> metrics_;  // one per rank
  std::vector<std::vector<Key>> input_;
  std::vector<std::vector<ItemT>> output_;
  SortStats<Key> stats_;
  std::vector<Key> splitters_;
  std::uint64_t wire_control_bytes_ = 0;
  std::uint64_t wire_data_bytes_ = 0;
  // Partition-strategy accumulators for the current run, folded into
  // stats_.partition by finalize(); the recovery supervisor resets them per
  // attempt so only the successful attempt is reported. Written by the
  // master (rounds, probe keys, certified epsilon) and by every rank
  // (level-1 items) — single-threaded DES, so plain members suffice.
  std::uint64_t part_rounds_ = 1;
  std::uint64_t part_probe_keys_ = 0;
  std::uint64_t part_level1_items_ = 0;
  std::uint64_t part_groups_ = 1;
  double part_refine_eps_ = 0.0;
  // Recovery supervisor state (only populated between run_recovering's
  // entry and its success): per-attempt inputs with dead shards re-dealt,
  // per-rank attempt outcomes, and the once-per-rank abort fan-out guard.
  bool recovery_active_ = false;
  std::vector<std::vector<Key>> attempt_input_;
  std::vector<AttemptOutcome> outcomes_;
  std::vector<char> abort_sent_;
  std::vector<std::size_t> final_members_;
  std::function<std::vector<Key>(std::size_t)> shard_source_;
  // Exchange chunk buffers: leased by senders, returned by receivers. One
  // pool for the whole cluster — the simulation shares an address space, so
  // a buffer posted by machine A is the same storage machine B receives.
  rt::BufferPool<Key> pool_;
};

// Runs several sorters over the same cluster in one simulation — the
// paper's "sort multiple different data simultaneously". Each sorter must
// have a distinct sort_id and its input installed via set_input(). Not
// recovery-aware: a cluster with a crash schedule or a sorter with
// recovery enabled is rejected (use DistributedSorter::run).
template <typename Key, typename Comp = sort::Less>
sim::SimTime sort_simultaneously(
    rt::Cluster<SortMsg<Key>>& cluster,
    std::vector<DistributedSorter<Key, Comp>*> sorters) {
  PGXD_CHECK(!sorters.empty());
  PGXD_CHECK_MSG(cluster.config().net.faults.crashes.empty(),
                 "sort_simultaneously: crash schedules are unsupported "
                 "(no recovery supervisor); use DistributedSorter::run");
  for (const auto* sorter : sorters)
    PGXD_CHECK_MSG(!sorter->config().recovery.enabled,
                   "sort_simultaneously: recovery-enabled sorters are "
                   "unsupported; use DistributedSorter::run");
  auto& sim = cluster.simulator();
  const sim::SimTime start = sim.now();
  for (std::size_t r = 0; r < cluster.size(); ++r)
    for (auto* sorter : sorters)
      sim.spawn(sorter->machine_program(cluster.machine(r)));
  sim.run();
  PGXD_CHECK_MSG(sim.quiescent(), "simultaneous sort deadlocked");
  const sim::SimTime elapsed = sim.now() - start;
  for (auto* sorter : sorters) sorter->finalize(elapsed);
  return elapsed;
}

}  // namespace pgxd::core
