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
//      receiver knows up front how much each source sends it.
//   5. Simultaneous asynchronous send/receive of data ranges, streamed in
//      read-buffer-sized chunks through the data-manager request buffers.
//      Each chunk is a view of the sender's sorted run; nothing is copied.
//   6. Merge of the per-source sorted runs, keeping each element's previous
//      processor and index (provenance). The host runs one loser-tree k-way
//      merge, in one range, that reads each source's range in the sender's
//      run and writes each item once; the cost model charges the configured
//      strategy (SortConfig::final_merge), the paper's Fig. 2 balanced merge
//      among them.
//
// One routine, partition_phase_impl, runs steps 2-6 for every partition
// scheme (SortConfig::partition). kOneLevelSample is the paper's single
// pass. kHistogramRefine seeds its splitter refinement from step 3's sample
// gather. kTwoLevelAms runs steps 2-6 twice through the same code: level 1
// over the whole membership with ~sqrt(p) rank groups as the parts, each
// aimed at its members' share of the keys, ships one bucket to one partner
// per foreign group and merges what it receives into the next sorted run;
// level 2 runs within this rank's group.
//
// All data movement is real (the output partitions are physically sorted
// real vectors); elapsed time is simulated through the cost model and the
// network fabric.
//
// Crash-stop recovery (SortConfig::recovery): the whole pipeline is
// parameterized over an *attempt membership* — an ordered subset of the
// cluster's ranks with member 0 as master — so the same code runs the clean
// p-rank sort and a shrunk (p-1)-rank re-run. A host-side supervisor
// (run_recovering) detects a member crash after each attempt, deals the
// dead rank's input shard (the host's copy) to the survivors, and re-runs
// on them; inside an attempt every receive polls for abort frames and
// failure-detector suspicion so survivors abandon a doomed attempt in
// bounded time instead of deadlocking. Chunks lost on the wire are
// retransmitted by reliable delivery, not by the sorter.
// With recovery disabled the clean path is byte-identical to before: every
// receive is a plain blocking recv and no control traffic exists.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/exchange_audit.hpp"
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

namespace pgxd::core {

// A rank's locally sorted run, shared read-only by every bulk data frame
// (kTagData, kTagL1Data) cut from it: a frame is a view, not a copy, so a
// fabric duplicate or a retransmit copies a pointer. `origins` is the run's
// origin plane on the two-hop (AMS) path and empty otherwise. Every
// receiver, at both AMS levels too, keeps one reference per source and
// merges straight from the run, so the run lives until its sender, the
// last receiver merging from it and the last frame viewing it have let go.
// A frame left in a mailbox (a trailing duplicate, an aborted attempt's
// stray) stays valid for as long as it exists.
template <typename Key>
struct SortedRun {
  std::vector<Key> keys;
  std::vector<Provenance> origins;

  SortedRun(std::vector<Key> k, std::vector<Provenance> o)
      : keys(std::move(k)), origins(std::move(o)) {}
};

// Message payload for the sort's communication; which member is populated
// depends on the tag.
// Only keys travel on the wire. Data frames carry `prov_base`: the frame's
// start offset in the sender's locally sorted sequence, from which the
// receiver reconstructs per-element provenance — the paper's low exchange
// volume and its "memory used for keeping previous information" (receiver-
// side provenance arrays, Fig. 11) both follow from this design.
template <typename Key>
struct SortMsg {
  // Samples and splitters; histogram probes and drawn candidates
  // (kTagProbe / kTagReply); AMS level-1 samples.
  std::vector<Key> keys;
  // Send counts and control frames (kTagCounts / kTagCtrl); probe headers
  // and subtree replies (kTagProbe / kTagReply); AMS level-1 bucket sizes.
  std::vector<std::uint64_t> counts;
  // kTagData / kTagL1Data: the sender's sorted run; the frame carries its
  // elements [prov_base, prov_base + len).
  std::shared_ptr<const SortedRun<Key>> run;
  // kTagData / kTagL1Data: sender-side start offset; samples: the sender's
  // shard size.
  std::uint64_t prov_base = 0;
  // kTagData / kTagL1Data: offset of this frame within the (src -> dst)
  // range; 0 for a level-1 bucket. It names the frame's chunk for the
  // receiver's dedup, and prov_base - rel_offset is the range's start in
  // the sender's run, so any frame tells the receiver where the range
  // lies, whatever order the fabric delivers them in.
  std::uint64_t rel_offset = 0;
  std::uint64_t len = 0;  // kTagData / kTagL1Data: elements viewed

  // User-declared constructors are load-bearing; see the note on
  // rt::Message about GCC 12 and aggregate temporaries in co_await.
  SortMsg() = default;
  SortMsg(std::vector<Key> k, std::vector<std::uint64_t> c, std::uint64_t base,
          std::uint64_t rel)
      : keys(std::move(k)), counts(std::move(c)), prov_base(base),
        rel_offset(rel) {}

  // A data frame: elements [base, base + n) of `r`, at `rel` within the
  // (src -> dst) range.
  static SortMsg of_view(std::shared_ptr<const SortedRun<Key>> r,
                         std::uint64_t base, std::uint64_t n,
                         std::uint64_t rel) {
    SortMsg msg({}, {}, base, rel);
    msg.run = std::move(r);
    msg.len = n;
    return msg;
  }
  static SortMsg of_samples(std::vector<Key> v, std::uint64_t shard_n) {
    return SortMsg(std::move(v), {}, shard_n, 0);
  }
  static SortMsg of_keys(std::vector<Key> v) {
    return SortMsg(std::move(v), {}, 0, 0);
  }
  static SortMsg of_counts(std::vector<std::uint64_t> v) {
    return SortMsg({}, std::move(v), 0, 0);
  }

  // A data frame's keys, and their origins on the two-hop path (empty
  // otherwise).
  std::span<const Key> view() const {
    return {run->keys.data() + prov_base, len};
  }
  std::span<const Provenance> origins() const {
    if (run->origins.empty()) return {};
    return {run->origins.data() + prov_base, len};
  }
};

// A k-ary tree over the indices 0..q-1 of a partition scope (see the
// sorter's ScopeIndex), rooted at the scope master, index 0. Node i owns
// the contiguous index range [i, end); its children split the rest of it,
// [i+1, end), into at most kFanout contiguous ranges of near-equal size.
// So a preorder walk visits the scope in index order, and no node is deeper
// than ceil(log_k q). The scale-out partition schemes run their control
// rounds over it: requests go down, replies come back up, and no rank
// sends or receives more than k + 1 control frames per round.
struct ScopeTree {
  static constexpr std::size_t kFanout = 4;

  std::size_t parent = 0;  // the root is its own parent
  std::size_t end = 0;     // one past the last index of this node's range
  std::size_t depth = 0;
  std::vector<std::size_t> children;  // ascending

  // Node `self` of a q-member scope, found by descending from the root.
  ScopeTree(std::size_t q, std::size_t self) : end(q) {
    PGXD_CHECK(self < q);
    for (std::size_t node = 0;; ++depth) {
      const std::size_t rest = end - node - 1;
      const std::size_t parts = std::min(kFanout, rest);
      children.clear();
      for (std::size_t c = 0; c < parts; ++c)
        children.push_back(node + 1 + c * (rest / parts) +
                           std::min(c, rest % parts));
      if (node == self) return;
      // The last child starting at or before self holds it.
      const auto c = static_cast<std::size_t>(
          std::upper_bound(children.begin(), children.end(), self) -
          children.begin() - 1);
      parent = node;
      end = child_end(c);
      node = children[c];
    }
  }

  bool root() const { return depth == 0; }
  // One past the last index of child c's range.
  std::size_t child_end(std::size_t c) const {
    return c + 1 < children.size() ? children[c + 1] : end;
  }
  // Position of scope index j among the children; children.size() when j
  // is not a child of this node.
  std::size_t child_pos(std::size_t j) const {
    const auto it = std::lower_bound(children.begin(), children.end(), j);
    return it != children.end() && *it == j
               ? static_cast<std::size_t>(it - children.begin())
               : children.size();
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
  // simultaneously"). kTagCtrl carries the recovery layer's abort
  // fan-outs. Tags 5-6 carry the histogram-refinement rounds, 8-11 the AMS
  // level-1 exchange; tags 7 and 12-15 are reserved.
  static constexpr int kTagSamples = 0;
  static constexpr int kTagSplitters = 1;
  static constexpr int kTagCounts = 2;
  static constexpr int kTagData = 3;
  static constexpr int kTagCtrl = 4;
  static constexpr int kTagProbe = 5;  // parent -> children: probe/draw/done
  static constexpr int kTagReply = 6;  // children -> parent: subtree replies
  static constexpr int kTagL1Samples = 8;   // AMS: samples to the global master
  static constexpr int kTagGroupSplit = 9;  // AMS: splitters down the tree
  static constexpr int kTagL1Counts = 10;   // AMS: bucket size to the partner
  static constexpr int kTagL1Data = 11;     // AMS: the bucket itself
  static constexpr int kTagStride = 16;

  // Control-frame kind (counts[0]); counts[1] is the attempt number and
  // counts[2] the rank whose failure triggered the abort.
  static constexpr std::uint64_t kCtrlAbort = 1;

  // Histogram-refinement frame kinds (kTagProbe counts[0]); counts[1] is a
  // per-attempt round sequence number so a duplicating fabric's redelivered
  // requests are recognized as stale.
  static constexpr std::uint64_t kProbeCount = 1;  // count these probe keys
  static constexpr std::uint64_t kProbeDraw = 2;   // draw inside intervals
  // Refinement finished: the splitters and the duplicates owed per boundary.
  static constexpr std::uint64_t kProbeDone = 3;

  // Exchange wire cost: keys only (provenance is reconstructed at the
  // receiver from the message's source and prov_base), plus a small
  // per-message header.
  static constexpr std::uint64_t kDataWireBytesPerKey = sizeof(Key);
  static constexpr std::uint64_t kChunkHeaderBytes = 16;
  // Receiver-side storage per element in the model: key + PGX.D's 12-byte
  // provenance record (20 bytes for a u64 key). The host's Item is smaller
  // (16 bytes; see core/provenance.hpp); this constant charges PGX.D's.
  static constexpr std::uint64_t kStoredBytesPerItem =
      sizeof(Key) + kProvenanceBytes;

  DistributedSorter(Cluster& cluster, SortConfig cfg, int sort_id = 0,
                    Comp comp = {})
      : cluster_(cluster), cfg_(cfg), base_tag_(sort_id * kTagStride),
        comp_(comp) {
    const std::string why = cfg_.validate();
    PGXD_CHECK_MSG(why.empty(), why.c_str());
    const std::size_t p = cluster_.size();
    PGXD_CHECK_MSG(p <= Provenance::kMachineLimit,
                   "more machines than Provenance::prev_machine can name");
    input_.resize(p);
    output_.resize(p);
    boundary_.resize(p);
    stats_.machines.resize(p);
    metrics_.resize(p);
  }

  // Installs per-machine input shards (must be called before the cluster
  // run that executes machine_program).
  void set_input(std::vector<std::vector<Key>> shards) {
    PGXD_CHECK(shards.size() == cluster_.size());
    input_ = std::move(shards);
  }

  // Convenience: install shards, run this sort alone on the cluster, and
  // finalize statistics. With SortConfig::recovery enabled this runs the
  // crash-recovery supervisor instead of a single cluster run. A sorter
  // sorts once.
  void run(std::vector<std::vector<Key>> shards) {
    claim_sort();
    set_input(std::move(shards));
    if (cfg_.recovery.enabled) {
      run_recovering();
      return;
    }
    audit_slots_.arm(input_);
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
    radix_scratch_ = std::vector<Key>();  // frees it: step 1 is over
    stats_.total_time = elapsed;
    stats_.steps_max = StepTimings{};
    for (const auto& ms : stats_.machines) stats_.steps_max.max_with(ms.steps);
    // Balance and boundaries over the ranks that produced output: after a
    // recovery the dead ranks' partitions are empty by construction, and
    // counting them would report a meaningless imbalance.
    if (final_members_.empty()) {
      final_members_.resize(output_.size());
      std::iota(final_members_.begin(), final_members_.end(), std::size_t{0});
    }
    std::vector<std::uint64_t> sizes;
    stats_.splitters.clear();
    for (std::size_t i = 0; i < final_members_.size(); ++i) {
      const std::size_t r = final_members_[i];
      sizes.push_back(output_[r].size());
      if (i + 1 < final_members_.size())
        stats_.splitters.push_back(boundary_[r]);
    }
    stats_.balance = balance_report(sizes);
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
    stats_.recovery.final_members = final_members_.size();
    // Fold the substrate's counters into the per-rank registries: NIC
    // traffic/fault counters and the comm layer's reliable-delivery stats
    // (rank 0). The sorter's own stats stay typed: SortStats.
    if (cfg_.telemetry)
      for (std::size_t r = 0; r < metrics_.size(); ++r)
        cluster_.export_metrics(metrics_[r], r);
  }

  const std::vector<std::vector<ItemT>>& partitions() const { return output_; }
  const SortStats<Key>& stats() const { return stats_; }
  const SortConfig& config() const { return cfg_; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  // Ranks that produced the final output, in member order; after run() it
  // equals 0..p-1 unless a recovery shrank the membership.
  const std::vector<std::size_t>& final_members() const {
    return final_members_;
  }
  // All zero: exchange frames are views of the sender's sorted run, so no
  // buffer pool exists. Kept for the benchmark's runtime.pool.* fields
  // until they retire.
  rt::BufferPoolStats pool_stats() const { return {}; }
  // Runtime wait-for graph counters (edges registered, detection passes,
  // peak simultaneously-blocked ranks) for the report's waits section.
  const sim::WaitGraph::Stats& wait_stats() const {
    return cluster_.wait_graph().stats();
  }

  // Per-rank telemetry (populated when SortConfig::telemetry is on).
  const obs::MetricsRegistry& metrics(std::size_t rank) const {
    return metrics_[rank];
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
  // per-rank mailbox depth, blocked ranks, failure-detector suspicion — on
  // the sampler and attaches it to the cluster, which starts/stops its
  // sampling loop around each run.
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
  };

  enum class AttemptOutcome { kNotRun, kOk, kCrashed, kAborted };

  // Physical rank -> position in an ordered rank list (an attempt's
  // membership or a partition scope).
  struct ScopeIndex {
    std::vector<std::size_t> pos;  // size for a rank outside the list
    std::size_t size;

    ScopeIndex(std::size_t p, const std::vector<std::size_t>& ranks)
        : pos(p, ranks.size()), size(ranks.size()) {
      for (std::size_t j = 0; j < size; ++j) pos[ranks[j]] = j;
    }
    // Position of a frame's source; fails with `what` outside the list.
    std::size_t source(std::size_t src, const char* what) const {
      PGXD_CHECK_MSG(pos[src] < size, what);
      return pos[src];
    }
  };

  // The sources one gather has heard from. On a duplicating fabric without
  // reliable delivery a frame can arrive twice, so a gather waits for
  // distinct sources, not messages, and drops a source's repeats.
  struct SourceSet {
    std::vector<bool> heard;
    std::size_t missing;

    // Waits for `expected` of q sources.
    SourceSet(std::size_t q, std::size_t expected)
        : heard(q, false), missing(expected) {}
    // As above, where `self` holds its own part already.
    SourceSet(std::size_t q, std::size_t expected, std::size_t self)
        : SourceSet(q, expected) {
      heard[self] = true;
    }
    bool done() const { return missing == 0; }
    // Marks source j heard; false for a repeat, which the caller drops.
    bool first(std::size_t j) {
      if (heard[j]) return false;
      heard[j] = true;
      --missing;
      return true;
    }
  };

  // A splitter master's weighted sample pool. Each sample stands for
  // shard_size / sample_count elements of its shard (prov_base carries the
  // shard size), so shards of very different sizes — e.g. graph partitions
  // balanced by edges — still get proportional splitters.
  struct SamplePool {
    std::vector<sort::WeightedSample<Key>> items;

    void add(const std::vector<Key>& keys, std::uint64_t shard_n) {
      if (keys.empty()) return;
      const double w =
          static_cast<double>(shard_n) / static_cast<double>(keys.size());
      for (const auto& k : keys)
        items.push_back(sort::WeightedSample<Key>{k, w});
    }
    // Sorts the pool and picks parts-1 splitters at the cumulative
    // `shares` (equal shares when empty); the caller charges the sort.
    std::vector<Key> select(std::size_t parts,
                            std::span<const std::size_t> shares,
                            const Comp& comp) {
      std::sort(items.begin(), items.end(),
                [&comp](const sort::WeightedSample<Key>& a,
                        const sort::WeightedSample<Key>& b) {
                  return comp(a.key, b.key);
                });
      return sort::select_splitters_weighted<Key, Comp>(items, parts, comp,
                                                        shares);
    }
  };

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
  // Stats accumulate over a sort, so a second sort on one sorter would
  // report doubled step times, bytes and sample counts.
  void claim_sort() {
    PGXD_CHECK_MSG(!claimed_, "a DistributedSorter sorts once; construct a "
                              "new one for the next sort");
    claimed_ = true;
  }
  void note_control_bytes(std::uint64_t b) { wire_control_bytes_ += b; }
  void note_data_bytes(std::uint64_t b) { wire_data_bytes_ += b; }

  // Closes the paper step `rank` has run since `mark`: per-step timing and
  // a trace span tagged with the bytes the step moved. Accumulating (+=)
  // because the two-level scheme visits the sampling..exchange steps twice
  // — once per level.
  void stamp(std::size_t rank, sim::SimTime& mark, Step s,
             std::uint64_t bytes = 0) {
    const sim::SimTime now = cluster_.simulator().now();
    stats_.machines[rank].steps[s] += now - mark;
    if (trace_) trace_->record(rank, step_name(s), mark, now, bytes);
    mark = now;
  }

  // A refinement request for kTagProbe: {kind, seq, extra...} in the
  // counts plane, `keys` in the key plane. Notes its control bytes; the
  // caller posts it.
  std::pair<Msg, std::uint64_t> probe_frame(
      std::uint64_t kind, std::uint64_t seq, const std::vector<Key>& keys,
      const std::vector<std::uint64_t>& extra = {}) {
    std::vector<std::uint64_t> hdr{kind, seq};
    hdr.insert(hdr.end(), extra.begin(), extra.end());
    const std::uint64_t bytes =
        keys.size() * sizeof(Key) + hdr.size() * sizeof(std::uint64_t);
    note_control_bytes(bytes);
    return {Msg(std::vector<Key>(keys), std::move(hdr), 0, 0), bytes};
  }

  // Poll quantum for deadline-aware receives under recovery: half the
  // detector timeout (floored) so suspicion is noticed within one or two
  // polls of becoming observable.
  sim::SimTime poll_quantum() {
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
  // one completes with no member crashing mid-flight, dealing dead ranks'
  // shards to the survivors and re-running on them after each failure.
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
                   "(aborted attempts leave stray frames behind by "
                   "design)");
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
      // shards are re-read from the host's copy (the stand-in for durable
      // storage) and dealt round-robin to the survivors.
      attempt_input_.assign(p, {});
      for (std::size_t r : members) attempt_input_[r] = input_[r];
      std::size_t dead_seen = 0;
      for (std::size_t r = 0; r < p; ++r) {
        if (!fabric.down(r, sim.now())) continue;
        const std::size_t owner = members[dead_seen++ % members.size()];
        attempt_input_[owner].insert(attempt_input_[owner].end(),
                                     input_[r].begin(), input_[r].end());
        ++stats_.recovery.regenerated_shards;
      }
      audit_slots_.arm(attempt_input_);
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
      const sim::SimTime t0 = sim.now();
      const sim::SimTime elapsed = cluster_.run_on(
          members, [this, attempt, &members](rt::Machine& m) {
            AttemptCtx ctx(attempt, members);
            return resilient_program(m, std::move(ctx));
          });
      const sim::SimTime t1 = sim.now();
      // Aborted attempts strand frames in mailboxes; a clean slate per
      // attempt keeps chunk dedup honest, and a dropped frame lets go of
      // its view of the sender's run.
      comm.drain_mailboxes();
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

  // Drains this rank's control mailbox; an abort frame raises
  // SortAbortedError.
  void service_ctrl(std::size_t rank) {
    auto& comm = cluster_.comm();
    while (std::optional<Envelope> c = comm.try_recv(rank, tag(kTagCtrl))) {
      PGXD_CHECK_MSG(!c->payload.counts.empty(),
                     "empty control frame in the sort's ctrl mailbox");
      if (c->payload.counts[0] == kCtrlAbort)
        throw rt::SortAbortedError("abort frame from rank " +
                                   std::to_string(c->src));
    }
  }
  // pgxd-protocol: end-recovery-path

  // The sort's one receive primitive. Clean path (recovery off): a plain
  // blocking recv, byte-identical to the pre-recovery sorter. Recovery
  // path: a bounded poll loop that (a) dies promptly if this rank crashed,
  // (b) drains abort frames, and (c) turns failure-detector suspicion of
  // any member into an attempt abort.
  // pgxd-protocol: allow(tag-opaque) -- forwards the caller's tag
  sim::Task<Envelope> recv_sort(rt::Machine& m, const AttemptCtx& ctx, int tg) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    if (!recovery_active_) {
      // pgxd-protocol: allow(tag-opaque) -- forwards the caller's tag
      Envelope v = co_await comm.recv(rank, tg);
      co_return v;
    }
    // pgxd-protocol: recovery-path
    auto& sim = cluster_.simulator();
    rt::FailureDetector* det = cluster_.detector();
    const sim::SimTime poll = poll_quantum();
    for (;;) {
      comm.throw_if_crashed(rank);
      service_ctrl(rank);
      if (det != nullptr) {
        const auto dead = det->first_suspected(rank, ctx.members);
        if (dead) {
          abort_attempt(ctx, rank, *dead);
          throw rt::SortAbortedError("rank " + std::to_string(*dead) +
                                     " suspected crashed");
        }
      }
      // pgxd-protocol: allow(tag-opaque) -- forwards the caller's tag
      auto got = co_await comm.recv_until(rank, tg, sim.now() + poll);
      if (got) co_return std::move(*got);
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

  // kHistogramRefine (Histogram Sort with Sampling), run by every member of
  // the scope over its ScopeTree. The root seeds sort::HistogramRefiner with
  // `seed`, the splitters partition_phase's sample gather selected, and
  // `total_n`, the element count that gather summed from the members' shard
  // sizes. Counting rounds (exact global rank brackets for the probe set)
  // alternate with draw rounds (fresh candidates from inside the
  // still-unresolved brackets) until every splitter boundary is certified
  // within the epsilon target or the round budget is spent. A round's
  // request goes down the tree on kTagProbe; each node forwards it, does
  // its local part, and once its children have answered sends one reply up
  // on kTagReply: the rank brackets summed over its subtree, or its
  // subtree's draws, merged and thinned to the root's per-interval probe
  // cap (sort::thin_per_interval). Every member draws at its own phase of
  // the draw stride, so the subtrees' draws interleave.
  //
  // Resolution round: the refiner certifies a boundary by a key whose
  // duplicate run *brackets* the target rank — landing on that rank exactly
  // means splitting the run by count, which no downstream consumer can
  // derive from the key alone (the investigator splits dup runs
  // heuristically, forfeiting the certified epsilon on dup-heavy data). So
  // one more counting round runs over the final splitter keys, and every
  // node keeps its own and each child subtree's duplicate counts from it.
  // The closing down-sweep (kProbeDone) carries the splitters and, per
  // boundary, the duplicates still owed at the start of the receiving
  // node's range: the node takes what it holds and hands the rest on to its
  // children in order. Preorder is scope order, so members give up their
  // duplicates in member order. Returns the splitters in `keys` and this
  // rank's duplicate takes in `counts` — steps (4)-(6) never know which
  // scheme ran.
  sim::Task<Msg> refine_splitters(rt::Machine& m, const AttemptCtx& ctx,
                                  const std::vector<Key>& local,
                                  const std::vector<Key>& seed,
                                  std::uint64_t total_n) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    const std::size_t n = local.size();
    const std::size_t q = ctx.scope.size();
    const ScopeIndex midx(cluster_.size(), ctx.scope);
    const ScopeTree tree(q, midx.pos[rank]);
    const std::size_t kids = tree.children.size();

    // The current request: its kind, round sequence number (so a
    // duplicating fabric's redelivered frames are recognized as stale), key
    // plane, and the draw flags or the owed duplicates.
    std::uint64_t kind = kProbeCount;
    std::uint64_t seq = 0;
    std::vector<Key> keys;
    std::vector<std::uint64_t> extra;
    // This rank's and each child subtree's duplicate counts per key of the
    // last counting round: the resolution round's once the loop ends.
    std::vector<std::uint64_t> own_dup;
    std::vector<std::vector<std::uint64_t>> kid_dup(kids);

    // Root: the refiner's targets need the exact total element count, not
    // an estimate; the sample gather summed it from the shard sizes.
    std::optional<sort::HistogramRefiner<Key, Comp>> refiner;
    bool resolving = false;
    double certified_eps = 0.0;
    const auto max_rounds =
        static_cast<std::size_t>(cfg_.partition_max_rounds);
    if (tree.root()) {
      refiner.emplace(q, total_n, cfg_.partition_epsilon, comp_);
      keys = refiner->seed(seed);
    }

    for (;;) {
      if (tree.root()) {
        // Refinement stops once every boundary is certified, the round
        // budget is spent or no candidates are left; the resolution round
        // then counts the final splitters.
        if (!resolving && (keys.empty() || refiner->done() ||
                           refiner->rounds() >= max_rounds)) {
          part_rounds_ = std::max<std::uint64_t>(1, refiner->rounds());
          part_probe_keys_ += refiner->probe_keys();
          certified_eps = refiner->achieved_epsilon();
          keys = refiner->splitters();
          extra.clear();
          kind = keys.empty() ? kProbeDone : kProbeCount;
          resolving = true;
        }
        ++seq;
      } else {
        auto req = co_await recv_sort(m, ctx, tag(kTagProbe));
        const auto& c = req.payload.counts;
        PGXD_CHECK_MSG(req.src == ctx.scope[tree.parent] && c.size() >= 2,
                       "malformed histogram probe frame");
        if (c[1] <= seq) continue;  // duplicating fabric: stale copy
        kind = c[0];
        seq = c[1];
        keys = std::move(req.payload.keys);
        extra.assign(c.begin() + 2, c.end());
      }
      if (kind == kProbeDone) break;
      for (const std::size_t child : tree.children) {
        auto req = probe_frame(kind, seq, keys, extra);
        comm.post(rank, ctx.scope[child], tag(kTagProbe), std::move(req.first),
                  req.second);
      }

      // This rank's part: exact local rank brackets for the probe keys, or
      // local candidates strictly inside the intervals.
      std::vector<std::uint64_t> lo, hi;
      std::vector<Key> drawn;
      std::vector<sort::RefineInterval<Key>> ivs;
      if (kind == kProbeCount) {
        sort::count_ranks<Key, Comp>(local, keys, lo, hi, comp_);
        co_await m.compute(m.cost().histogram_round_time(n, keys.size()));
        own_dup.resize(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
          own_dup[i] = hi[i] - lo[i];
      } else {
        PGXD_CHECK_MSG(kind == kProbeDraw && keys.size() == 2 * extra.size(),
                       "malformed histogram draw request");
        ivs.resize(extra.size());
        for (std::size_t i = 0; i < ivs.size(); ++i) {
          ivs[i].lo = keys[2 * i];
          ivs[i].hi = keys[2 * i + 1];
          ivs[i].has_lo = (extra[i] & 1) != 0;
          ivs[i].has_hi = (extra[i] & 2) != 0;
        }
        drawn = sort::draw_candidates<Key, Comp>(
            local, ivs, sort::kDrawPerInterval, midx.pos[rank], q, comp_);
        co_await m.charge_binary_search(n, 2 * ivs.size());
      }
      // The children's subtrees: sum their brackets, or merge their sorted
      // draws into this rank's.
      for (SourceSet got(kids, kids); !got.done();) {
        auto msg = co_await recv_sort(m, ctx, tag(kTagReply));
        const std::size_t c = tree.child_pos(midx.source(
            msg.src, "probe reply from a rank outside the membership"));
        PGXD_CHECK_MSG(c < kids, "probe reply from a rank that is not a child");
        const auto& r = msg.payload.counts;
        // A stale round's reply or a child's repeat: drop.
        if (r.empty() || r[0] != seq || !got.first(c)) continue;
        if (kind == kProbeDraw) {
          const auto mid = static_cast<std::ptrdiff_t>(drawn.size());
          drawn.insert(drawn.end(), msg.payload.keys.begin(),
                       msg.payload.keys.end());
          std::inplace_merge(drawn.begin(), drawn.begin() + mid, drawn.end(),
                             comp_);
          continue;
        }
        const std::size_t np = keys.size();
        PGXD_CHECK_MSG(r.size() == 1 + 2 * np,
                       "probe reply does not match the probe set");
        kid_dup[c].resize(np);
        for (std::size_t i = 0; i < np; ++i) {
          lo[i] += r[1 + i];
          hi[i] += r[1 + np + i];
          kid_dup[c][i] = r[1 + np + i] - r[1 + i];
        }
      }
      if (kids > 0 && kind == kProbeCount)
        co_await m.compute(m.cost().merge_time(kids * 2 * keys.size()));
      if (kids > 0 && kind == kProbeDraw)
        co_await m.compute(m.cost().merge_time(drawn.size()));

      if (!tree.root()) {
        // One reply up: {seq, lo..., hi...}, or {seq} and the subtree's
        // draws thinned to the root's per-interval probe cap.
        if (kind == kProbeDraw)
          drawn = sort::thin_per_interval<Key, Comp>(
              std::move(drawn), ivs,
              sort::HistogramRefiner<Key, Comp>::kProbeCapPerInterval, comp_);
        std::vector<std::uint64_t> hdr(1, seq);
        hdr.insert(hdr.end(), lo.begin(), lo.end());
        hdr.insert(hdr.end(), hi.begin(), hi.end());
        const std::uint64_t bytes = drawn.size() * sizeof(Key) +
                                    hdr.size() * sizeof(std::uint64_t);
        note_control_bytes(bytes);
        Msg reply(std::move(drawn), std::move(hdr), 0, 0);
        comm.post(rank, ctx.scope[tree.parent], tag(kTagReply),
                  std::move(reply), bytes);
        continue;
      }
      // Root: absorb the reply and pick the next request.
      if (kind == kProbeDraw) {
        keys = refiner->absorb_draws(std::move(drawn));
        kind = kProbeCount;
        extra.clear();
      } else if (!resolving) {
        refiner->absorb_counts(lo, hi);
        if (!refiner->done() && refiner->rounds() < max_rounds)
          ivs = refiner->draw_intervals();
        kind = kProbeDraw;
        keys.clear();
        extra.clear();
        for (const auto& iv : ivs) {
          keys.push_back(iv.has_lo ? iv.lo : Key{});
          keys.push_back(iv.has_hi ? iv.hi : Key{});
          extra.push_back((iv.has_lo ? 1u : 0u) | (iv.has_hi ? 2u : 0u));
        }
      } else {
        // Boundary i lands at global rank r = clamp(target, sum lo, sum
        // hi), so r - sum lo of its duplicates are owed left of it. For
        // equal splitter keys r is non-decreasing in i over the same
        // bracket, so per-member takes are monotone and bounds stay sorted.
        std::uint64_t worst_err = 0;
        extra.resize(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
          const std::uint64_t t = refiner->target(i);
          const std::uint64_t r = std::clamp(t, lo[i], hi[i]);
          worst_err = std::max(worst_err, r > t ? r - t : t - r);
          extra[i] = r - lo[i];
        }
        part_probe_keys_ += keys.size();
        if (total_n > 0)
          certified_eps = 2.0 * static_cast<double>(q) *
                          static_cast<double>(worst_err) /
                          static_cast<double>(total_n);
        kind = kProbeDone;
      }
    }
    if (tree.root() && cfg_.telemetry)
      metrics_[rank]
          .gauge("sort.partition.certified_epsilon")
          .set(certified_eps);

    // Down-sweep: take this rank's share of each boundary's owed
    // duplicates, then hand the rest to the children in scope order.
    const std::size_t nb = keys.size();
    PGXD_CHECK_MSG(extra.size() == nb && (nb == 0 || own_dup.size() == nb),
                   "histogram done frame does not match the resolution round");
    std::vector<std::uint64_t> takes(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      takes[i] = std::min(own_dup[i], extra[i]);
      extra[i] -= takes[i];
    }
    for (std::size_t c = 0; c < kids; ++c) {
      std::vector<std::uint64_t> owed(nb);
      for (std::size_t i = 0; i < nb; ++i) {
        owed[i] = std::min(kid_dup[c][i], extra[i]);
        extra[i] -= owed[i];
      }
      auto req = probe_frame(kProbeDone, seq, keys, owed);
      comm.post(rank, ctx.scope[tree.children[c]], tag(kTagProbe),
                std::move(req.first), req.second);
    }
    co_return Msg(std::move(keys), std::move(takes), 0, 0);
  }

  // One member's pipeline for one attempt: step (1), then steps (2)-(6)
  // through partition_phase.
  sim::Task<void> sort_attempt_impl(rt::Machine& m, AttemptCtx ctx) {
    const std::size_t rank = m.rank();
    obs::MetricsRegistry& reg = metrics_[rank];
    const bool telemetry = cfg_.telemetry;
    sim::SimTime mark = cluster_.simulator().now();

    // ---- Step 1: local sort ------------------------------------------------
    // Provenance convention: an element's previous location is its position
    // in its previous machine's *locally sorted* sequence (what the
    // exchange actually ships; receivers derive indices from each frame's
    // prov_base, so provenance never rides the wire). The shard moves into the
    // sort: nothing reads it again, and a recovery attempt moves from its
    // own copy, leaving input_ whole for re-dealing dead ranks' shards.
    std::vector<Key> local =
        std::move(recovery_active_ ? attempt_input_[rank] : input_[rank]);
    const std::size_t n = local.size();
    {
      // Scratch for the in-node sort (the Fig. 2 ping-pong buffer / radix
      // scatter buffer), charged per machine. The host sorts every rank's
      // shard through one scatter buffer, radix_scratch_.
      rt::TempAlloc scratch_mem(m.memory(), n * sizeof(Key));
      const sort::LocalSortStats ls = sort::local_sort(
          local, cfg_.local_sort, comp_, {}, &radix_scratch_);
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
    stamp(rank, mark, Step::kLocalSort, n * sizeof(Key));

    co_await partition_phase(m, std::move(ctx), std::move(local));
  }

  // Not a coroutine (GCC 12 pattern).
  sim::Task<void> partition_phase(rt::Machine& m, AttemptCtx ctx,
                                  std::vector<Key> local) {
    return partition_phase_impl(m, std::move(ctx), std::move(local));
  }

  // Steps (2)-(6) for every partition scheme, over ctx.scope: regular
  // samples, the master's gather and selection, the plan and the
  // per-destination counts, the exchange and the merge. They run once for
  // the flat schemes, and kHistogramRefine seeds refine_splitters from
  // that same sample gather. kTwoLevelAms runs them twice. Level 1 cuts
  // the whole membership into ~sqrt(q) contiguous rank groups, each aimed
  // at its share of the members: the coarse splitters go down the scope
  // tree, each rank ships one count and one bucket to its partner in each
  // foreign group (per-rank fan-out ~sqrt(q) instead of q) and merges what
  // it receives into its next sorted run. ctx.scope then narrows to this
  // rank's group and level 2 is the last pass. Group contiguity plus the
  // ordered coarse splitters keep the global output sorted in rank order.
  // All per-source bookkeeping is indexed 0..q-1 over ctx.scope;
  // provenance and endpoints stay in physical rank space, and aborts and
  // the failure detector keep watching the full membership through
  // recv_sort.
  sim::Task<void> partition_phase_impl(rt::Machine& m, AttemptCtx ctx,
                                       std::vector<Key> local) {
    auto& comm = cluster_.comm();
    const std::size_t rank = m.rank();
    auto& sim = cluster_.simulator();
    auto& mem = m.memory();
    MachineStats& ms = stats_.machines[rank];
    obs::MetricsRegistry& reg = metrics_[rank];
    const bool telemetry = cfg_.telemetry;
    const bool histogram =
        cfg_.partition == PartitionScheme::kHistogramRefine;
    sort::AmsLayout layout;
    if (cfg_.partition == PartitionScheme::kTwoLevelAms) {
      layout = sort::ams_layout(ctx.members.size());
      part_groups_ = layout.groups;
    }
    // Explicit-provenance mode: a property of the attempt (level 1 runs),
    // shared by every scope member — a rank with an empty local array
    // still receives origin planes from its peers. After the level-1
    // exchange, elements of `local` originate from other ranks' shards:
    // `lprov[i]` records element i's true origin so the group exchange can
    // ship it and the final provenance — and the exactly-once audit — still
    // point at original shard positions.
    const bool xprov = layout.groups > 1;
    std::vector<Provenance> lprov;
    ScopeIndex midx(cluster_.size(), ctx.scope);
    std::size_t q = ctx.scope.size();
    std::size_t idx = midx.pos[rank];
    PGXD_CHECK_MSG(idx < q, "sort attempt spawned on a non-member rank");
    auto& out = output_[rank];
    sim::SimTime mark = sim.now();

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

    for (bool level1 = xprov;; level1 = false) {
      const std::size_t master = ctx.scope[0];
      const std::size_t n = local.size();
      // Level 1 cuts the scope into groups, every other pass into ranks.
      const std::size_t parts = level1 ? layout.groups : q;
      const std::size_t part = level1 ? layout.group_of(idx) : idx;
      // Boundary j's target: level 1 aims each group at its members'
      // share, every other pass at equal shares.
      const std::span<const std::size_t> shares =
          level1 ? std::span<const std::size_t>(layout.start)
                 : std::span<const std::size_t>();

      // ---- Step 2: regular samples to the master ----------------------------
      const std::uint64_t sample_count = sample_budget(q, n, histogram);
      std::vector<Key> samples =
          sort::regular_samples<Key>(local, sample_count, idx, q);
      ms.sample_count += samples.size();
      co_await m.charge_copy(samples.size());
      if (rank != master) {
        // prov_base carries the shard size so the master can weight samples
        // from unequal shards (Spark's RangePartitioner does the same).
        const std::uint64_t bytes = samples.size() * sizeof(Key);
        note_control_bytes(bytes);
        co_await comm.send(rank, master,
                           tag(level1 ? kTagL1Samples : kTagSamples),
                           Msg::of_samples(samples, n), bytes);
      }
      stamp(rank, mark, Step::kSampling, samples.size() * sizeof(Key));

      // ---- Step 3: splitter determination -----------------------------------
      // The master gathers all sample vectors into its one read buffer and
      // picks parts-1 splitters. kOneLevelSample (and AMS level 2)
      // broadcasts them on kTagSplitters: the paper's one-shot selection.
      // AMS level 1 sends the coarse splitters down the scope tree, each
      // member forwarding them to its children. kHistogramRefine seeds the
      // refinement with them: the scope tree certifies candidate splitters
      // by their exact global ranks over kTagProbe/kTagReply rounds until
      // every boundary is within the epsilon target, and hands each rank
      // its duplicate takes. Either way the plan starts from the same
      // splitter frame.
      std::vector<Key> chosen;
      std::uint64_t total_n = n;  // the master's sum of the shard sizes
      if (rank == master) {
        SamplePool pool;
        pool.add(samples, n);
        for (SourceSet got(q, q - 1, idx); !got.done();) {
          auto msg = co_await recv_sort(
              m, ctx, tag(level1 ? kTagL1Samples : kTagSamples));
          if (!got.first(midx.source(msg.src, "samples from a rank outside "
                                              "the attempt membership")))
            continue;
          total_n += msg.payload.prov_base;
          pool.add(msg.payload.keys, msg.payload.prov_base);
        }
        rt::TempAlloc pool_mem(mem, pool.items.size() * sizeof(Key) * 2);
        chosen = pool.select(parts, shares, comp_);
        co_await m.compute_parallel(m.cost().sort_time(pool.items.size()));
      }
      Msg split;
      if (histogram) {
        split = co_await refine_splitters(m, ctx, local, chosen, total_n);
      } else if (level1) {
        const ScopeTree tree(q, idx);
        if (!tree.root()) {
          auto msg = co_await recv_sort(m, ctx, tag(kTagGroupSplit));
          PGXD_CHECK_MSG(msg.src == ctx.scope[tree.parent],
                         "group splitters from a rank other than the parent");
          chosen = std::move(msg.payload.keys);
        }
        for (const std::size_t child : tree.children) {
          const std::uint64_t bytes = chosen.size() * sizeof(Key);
          note_control_bytes(bytes);
          comm.post(rank, ctx.scope[child], tag(kTagGroupSplit),
                    Msg::of_keys(chosen), bytes);
        }
        split.keys = std::move(chosen);
      } else {
        if (rank == master) {
          for (std::size_t j = 0; j < q; ++j) {
            const std::size_t dst = ctx.scope[j];
            const std::uint64_t bytes = chosen.size() * sizeof(Key);
            if (dst != master) note_control_bytes(bytes);
            comm.post(master, dst, tag(kTagSplitters), Msg::of_keys(chosen),
                      bytes);
          }
        }
        auto msg = co_await recv_sort(m, ctx, tag(kTagSplitters));
        split = std::move(msg.payload);
      }
      const std::vector<Key> splitters = std::move(split.keys);
      const std::vector<std::uint64_t> dup_takes = std::move(split.counts);
      // The last rank of each part but the last borders the next part.
      if (part + 1 < parts && (!level1 || idx + 1 == layout.start[part + 1]))
        boundary_[rank] = splitters[part];
      stamp(rank, mark, Step::kSplitterSelect, splitters.size() * sizeof(Key));

      // ---- Step 4: partition plan + counts exchange -------------------------
      PartitionPlan plan;
      if (histogram && !splitters.empty() &&
          dup_takes.size() == splitters.size()) {
        // Exact-rank bounds from the refinement's resolution round: every
        // duplicate of splitter i sits right of lower_bound, and this
        // rank's take from the down-sweep says how many of ours move left
        // of the boundary.
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
        // The duplicate-splitter investigator balances duplicate runs
        // across part boundaries.
        plan = plan_partition<Key, Comp>(local, splitters,
                                         cfg_.use_investigator, comp_, shares);
      }
      ms.searches += plan.searches;
      ms.duplicate_groups += plan.duplicate_groups;
      co_await m.charge_binary_search(n, plan.searches);

      // Slim counts: each destination only needs its own element count, so
      // one u64 travels per (sender, receiver) pair — not the full q-entry
      // vector, whose transient bytes would grow O(q^3) cluster-wide. Past
      // kBatchedCountsScope members that is q^2 tiny messages
      // cluster-wide, and per-message overhead (headers, acks, event
      // scheduling) dwarfs the payload — so large level-2 scopes relay the
      // count matrix through the scope master instead: 2(q-1) q-entry
      // messages, 2q^2 u64 transient. Level 1 sends only ~sqrt(q) per rank.
      const std::vector<std::uint64_t> send_counts = plan_sizes(plan);
      // recv_counts[k] = elements member k sends us.
      std::vector<std::uint64_t> recv_counts(q, 0);
      if (!level1 && q > kBatchedCountsScope) {
        if (rank == master) {
          std::vector<std::vector<std::uint64_t>> matrix(q);
          matrix[idx] = send_counts;
          for (SourceSet got(q, q - 1, idx); !got.done();) {
            auto msg = co_await recv_sort(m, ctx, tag(kTagCounts));
            const std::size_t sj = midx.source(
                msg.src, "counts from a rank outside the attempt membership");
            if (!got.first(sj)) continue;
            PGXD_CHECK(msg.payload.counts.size() == q);
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
            auto msg = co_await recv_sort(m, ctx, tag(kTagCounts));
            if (msg.src != master) continue;  // stray frame: master's is law
            PGXD_CHECK(msg.payload.counts.size() == q);
            recv_counts = std::move(msg.payload.counts);
            break;
          }
        }
      } else {
        // One u64 to the member that receives each foreign part: every
        // other member, or at level 1 this rank's partner in each foreign
        // group. Receivers derive their sender set from the layout alone,
        // so zero-sized parts still need the frame.
        for (std::size_t j = 0; j < parts; ++j) {
          if (j == part) continue;
          std::vector<std::uint64_t> one;
          one.push_back(send_counts[j]);
          const std::uint64_t bytes = sizeof(std::uint64_t);
          note_control_bytes(bytes);
          comm.post(rank, ctx.scope[level1 ? layout.partner(idx, j) : j],
                    tag(level1 ? kTagL1Counts : kTagCounts),
                    Msg::of_counts(std::move(one)), bytes);
        }
        const auto sends_here = [&](std::size_t k) {
          return level1 ? layout.group_of(k) != part &&
                              layout.partner(k, part) == idx
                        : k != idx;
        };
        std::size_t senders = 0;
        for (std::size_t k = 0; k < q; ++k) senders += sends_here(k);
        recv_counts[idx] = send_counts[part];
        for (SourceSet got(q, senders, idx); !got.done();) {
          auto msg = co_await recv_sort(
              m, ctx, tag(level1 ? kTagL1Counts : kTagCounts));
          PGXD_CHECK(msg.payload.counts.size() == 1);
          const std::size_t sj = midx.source(
              msg.src, "counts from a rank outside the attempt membership");
          PGXD_CHECK_MSG(sends_here(sj), "counts from an unexpected sender");
          if (got.first(sj)) recv_counts[sj] = msg.payload.counts[0];
        }
      }
      stamp(rank, mark, Step::kPartitionPlan, parts * sizeof(std::uint64_t));

      // ---- Step 5: simultaneous send/receive -------------------------------
      // Part j goes to member j, or at level 1 to this rank's partner in
      // group j. The last pass streams it in read-buffer-sized kTagData
      // chunks; level 1 ships it whole as one kTagL1Data frame, AMS's one
      // message per (sender, group) pair: O(q sqrt(q)) messages
      // cluster-wide instead of O(q^2). "each processor knows how much data
      // it will receive": recv_counts[s] elements from member s.
      std::size_t total_recv = 0;
      for (const std::uint64_t c : recv_counts) total_recv += c;
      // Result keys + provenance live to the end of the sort: persistent.
      if (!level1) mem.alloc_persistent(total_recv * kStoredBytesPerItem);
      const std::uint64_t chunk_elems =
          level1 ? std::numeric_limits<std::uint64_t>::max()
                 : std::max<std::uint64_t>(
                       1, cfg_.read_buffer_bytes / kDataWireBytesPerKey);

      // The sorted run (and its two-hop origin plane) moves into one
      // shared, read-only block; every data frame sent below is a view of
      // it.
      auto run = std::make_shared<const SortedRun<Key>>(std::move(local),
                                                        std::move(lprov));
      // The pass after level 1 ships its run's origin plane along.
      const bool carried = xprov && !level1;
      // The receiver copies nothing: it keeps one reference per source, to
      // the run that source's frames view, and step 6 merges from there.
      // src_lo[s] is the start of the (member s -> rank) range in that run,
      // learned from any of s's frames (prov_base - rel_offset); got[s]
      // counts the elements received from s. PGX.D receives into buffers,
      // so the modelled memory still charges them.
      std::vector<std::shared_ptr<const SortedRun<Key>>> src_run(q);
      std::vector<std::uint64_t> src_lo(q, 0);
      std::vector<std::uint64_t> got(q, 0);
      const rt::TempAlloc recv_mem(mem, total_recv * sizeof(Key));
      const rt::TempAlloc recv_origins_mem(
          mem, (carried ? total_recv : 0) * sizeof(std::uint64_t));

      // Self range: a local memory move, not fabric traffic.
      {
        const std::size_t lo = plan.bounds[part];
        const std::size_t hi = plan.bounds[part + 1];
        src_run[idx] = run;
        src_lo[idx] = lo;
        got[idx] = hi - lo;
        co_await m.charge_copy(hi - lo);
      }

      // Chunk dedup bitmap: a source's chunks sit at rel_offset = c *
      // chunk_elems, so chunk c of member s maps to bit c of that member's
      // word range. O(q + chunks/64) memory, zero allocations per chunk.
      std::vector<std::size_t> seen_base(q + 1, 0);
      for (std::size_t s = 0; s < q; ++s) {
        // ceil(count / chunk_elems) without overflow at level 1's frame size.
        const std::uint64_t nchunks =
            s == idx ? 0
                     : recv_counts[s] / chunk_elems +
                           (recv_counts[s] % chunk_elems != 0);
        seen_base[s + 1] =
            seen_base[s] + static_cast<std::size_t>((nchunks + 63) / 64);
      }
      std::vector<std::uint64_t> seen_words(seen_base[q], 0);

      const std::size_t remote_expected = total_recv - recv_counts[idx];
      std::size_t remote_placed = 0;
      // Hold edges for deadlock *naming* (never detection): each peer that
      // still owes this rank data "holds" the rank's data mailbox until
      // its range is fully placed. Mailbox holds are O(q) per rank, so they
      // are capped at kWaitGraphHoldScope members; past that a deadlock is
      // still detected and reported, just without per-peer attribution.
      auto& wg = cluster_.wait_graph();
      const bool track_holds = q <= kWaitGraphHoldScope;
      const auto mbox = sim::WaitResource::mailbox(
          rank, tag(level1 ? kTagL1Data : kTagData));
      if (track_holds) {
        wg.clear_holds(mbox);  // stale holds from an aborted prior attempt
        for (std::size_t s = 0; s < q; ++s)
          if (s != idx && recv_counts[s] > 0) wg.add_hold(mbox, ctx.scope[s]);
      }
      // Wire bytes this rank put on the fabric during the exchange (span
      // metadata for the send/receive step).
      std::uint64_t exchange_wire_sent = 0;

      // Places one arriving frame — dedup, bounds, and the reference to its
      // source's run — and returns the elements placed (0 for a
      // duplicate). The caller charges the simulated copy cost.
      auto place_chunk = [&](const auto& msg) -> std::size_t {
        PGXD_CHECK(msg.src != rank);
        const std::size_t sj = midx.source(
            msg.src, "data chunk from a rank outside the attempt membership");
        const std::span<const Key> keys = msg.payload.view();
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
          return 0;
        }
        seen_words[word] |= bit;
        PGXD_CHECK_MSG(msg.payload.rel_offset + keys.size() <= recv_counts[sj],
                       "chunk overruns its source's receive range");
        PGXD_CHECK_MSG(!carried || msg.payload.origins().size() == keys.size(),
                       "two-hop data chunk arrived without its origin plane");
        // Every frame of one source views one range of one run.
        const std::uint64_t lo =
            msg.payload.prov_base - msg.payload.rel_offset;
        if (!src_run[sj]) {
          src_run[sj] = msg.payload.run;
          src_lo[sj] = lo;
        }
        PGXD_CHECK_MSG(src_run[sj] == msg.payload.run && src_lo[sj] == lo,
                       "frames of one source view different runs");
        const std::size_t placed = keys.size();
        got[sj] += placed;
        remote_placed += placed;
        if (track_holds && got[sj] == recv_counts[sj])
          wg.remove_hold(mbox, ctx.scope[sj]);
        if (c_items_recv) c_items_recv->inc(placed);
        return placed;
      };

      // Sends: post each frame as a view of the sorted run —
      // asynchronously (async mode) or blocking + barrier (bulk-synchronous
      // ablation). No payload is copied, so no sender ever waits for a
      // buffer. The simulated pack charge stays: PGX.D still fills a
      // request buffer per chunk. In async mode the loop also drains frames
      // that have already arrived — the paper's "simultaneous asynchronous
      // send/receive".
      for (std::size_t step = 1; step < parts; ++step) {
        // Ring order starting after own part spreads incast across
        // receivers.
        const std::size_t j = (part + step) % parts;
        const std::size_t dst =
            ctx.scope[level1 ? layout.partner(idx, j) : j];
        const std::size_t lo = plan.bounds[j];
        const std::size_t hi = plan.bounds[j + 1];
        for (std::size_t at = lo; at < hi;) {
          const std::size_t take =
              std::min<std::uint64_t>(hi - at, chunk_elems);
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
          if (cfg_.async_exchange) {
            comm.post(rank, dst, tag(level1 ? kTagL1Data : kTagData),
                      Msg::of_view(run, at, take, at - lo), bytes);
            while (remote_placed < remote_expected &&
                   comm.pending(rank, tag(level1 ? kTagL1Data : kTagData)) >
                       0) {
              auto msg = co_await recv_sort(
                  m, ctx, tag(level1 ? kTagL1Data : kTagData));
              const std::size_t placed = place_chunk(msg);
              if (placed > 0) co_await m.charge_copy(placed);
            }
          } else {
            co_await comm.send(rank, dst, tag(level1 ? kTagL1Data : kTagData),
                               Msg::of_view(run, at, take, at - lo), bytes);
          }
          at += take;
        }
      }
      if (!cfg_.async_exchange) co_await comm.barrier(rank);

      // Receives: place each incoming frame, in any arrival order,
      // discarding frames whose (src, chunk index) bit was already set, so
      // the loop stays correct when a duplicating fabric redelivers a
      // frame. It counts placed *elements*, not messages.
      while (remote_placed < remote_expected) {
        auto msg =
            co_await recv_sort(m, ctx, tag(level1 ? kTagL1Data : kTagData));
        const std::size_t placed = place_chunk(msg);
        if (placed > 0) co_await m.charge_copy(placed);
      }
      for (std::size_t s = 0; s < q; ++s)
        PGXD_CHECK_MSG(got[s] == recv_counts[s],
                       "exchange delivered wrong element counts");
      if (level1) part_level1_items_ += remote_placed;
      run.reset();  // frames peers have not read yet keep it alive
      stamp(rank, mark, Step::kExchange, exchange_wire_sent);

      // ---- Step 6: merge ----------------------------------------------------
      // One loser-tree k-way merge over the non-empty per-source ranges
      // (at level 1 about sqrt(q) of the q members send to a rank), read
      // in place in the senders' runs. Ties go to the lower member. Each
      // element is written once, with its origin: the carried origin
      // plane, or source s at src_lo[s] + i for index i of s's range. The
      // last pass writes output items; level 1 writes the next sorted run
      // and its origin plane. Every strategy runs the same one-range loser
      // tree and picks only what the cost model charges: the Fig. 2
      // pairwise tree (kPairwiseTree and level 1), the parallel k-way merge
      // (its splitter search and per-thread ranges are modelled from n,
      // runs and the thread count), or the naive k-way merge.
      {
        std::size_t runs = 0;
        for (std::size_t s = 0; s < q; ++s) runs += recv_counts[s] > 0;
        runs = std::max<std::size_t>(1, runs);
        // The modelled merge planes: keys + a u32 index, and their scratch.
        const rt::TempAlloc scratch_mem(
            mem, total_recv * (sizeof(Key) + 2 * sizeof(std::uint32_t)));
        std::vector<std::span<const Key>> kruns;
        std::vector<std::span<const Provenance>> korigins;
        std::vector<Provenance> kbase;
        for (std::size_t s = 0; s < q; ++s) {
          if (recv_counts[s] == 0) continue;
          const SortedRun<Key>& sr = *src_run[s];
          const std::size_t lo = src_lo[s];
          PGXD_CHECK_MSG(lo + recv_counts[s] <= sr.keys.size(),
                         "a source's range overruns its sorted run");
          kruns.emplace_back(sr.keys.data() + lo, recv_counts[s]);
          if (carried)
            korigins.emplace_back(sr.origins.data() + lo, recv_counts[s]);
          else
            kbase.emplace_back(ctx.scope[s], lo);
        }
        const MergeAlgo merge_algo =
            level1 ? MergeAlgo::kPairwiseTree : cfg_.final_merge;
        const auto merge = [&](auto&& emit) {
          sort::kway_merge_runs<Key>(kruns, comp_, 1, emit);
        };
        if (level1) {
          // Level 1 merges the step-1 runs, which carry no origin plane.
          local.clear();
          local.reserve(total_recv);
          lprov.clear();
          lprov.reserve(total_recv);
          merge([&](std::size_t r, std::size_t i) {
            local.push_back(kruns[r][i]);
            lprov.push_back(
                Provenance(kbase[r].prev_machine, kbase[r].prev_index + i));
          });
        } else {
          out.clear();
          out.reserve(total_recv);
          if (carried) {
            merge([&](std::size_t r, std::size_t i) {
              out.push_back(ItemT{kruns[r][i], korigins[r][i]});
            });
          } else {
            merge([&](std::size_t r, std::size_t i) {
              out.push_back(ItemT{kruns[r][i],
                                  Provenance(kbase[r].prev_machine,
                                             kbase[r].prev_index + i)});
            });
          }
        }
        src_run.clear();  // frames still in flight keep their runs alive
        if (merge_algo == MergeAlgo::kPairwiseTree) {
          co_await m.charge_balanced_merge(total_recv, runs);
        } else if (merge_algo == MergeAlgo::kParallelKway) {
          co_await m.charge_parallel_kway_merge(total_recv, runs);
        } else {
          co_await m.charge_naive_kway_merge(total_recv, runs);
        }
      }
      stamp(rank, mark, Step::kFinalMerge, total_recv * kStoredBytesPerItem);

      if (!level1) {
        // ---- Exactly-once audit ---------------------------------------------
        // See core/exchange_audit.hpp. Two-hop provenance names origins
        // anywhere in the attempt membership and the level-1 merge destroys
        // per-source slices, so that path checks origin distinctness only.
        if (xprov) {
          audit_two_hop_exchange(out, audit_slots_);
        } else {
          audit_single_hop_exchange(out, midx.pos, src_lo, recv_counts,
                                    audit_slots_);
        }
        break;
      }
      // Level 2 runs over this rank's group.
      ctx.scope.assign(
          ctx.members.begin() + static_cast<std::ptrdiff_t>(layout.start[part]),
          ctx.members.begin() +
              static_cast<std::ptrdiff_t>(layout.start[part + 1]));
      midx = ScopeIndex(cluster_.size(), ctx.scope);
      q = ctx.scope.size();
      idx = midx.pos[rank];
    }
    ms.peak_persistent_bytes = mem.peak_persistent();
    ms.peak_temp_bytes = mem.peak_temp();
    if (telemetry) reg.counter("sort.load.items").inc(out.size());
  }

  Cluster& cluster_;
  SortConfig cfg_;
  int base_tag_;
  Comp comp_;
  sim::Trace* trace_ = nullptr;
  std::vector<obs::MetricsRegistry> metrics_;  // one per rank
  std::vector<std::vector<Key>> input_;
  std::vector<std::vector<ItemT>> output_;
  // Step 1's radix scatter buffer, one for every rank: the DES runs one
  // rank's local sort at a time and local_sort never suspends. After an odd
  // pass count it holds the previous shard's storage, so equal shards reuse
  // it and a larger one grows it once.
  std::vector<Key> radix_scratch_;
  SortStats<Key> stats_;
  // Each rank's right partition boundary: the splitter between its output
  // and the next member's, written by the rank at step (3). finalize()
  // reads them in member order, so a two-level run reports every group's
  // level-2 splitters with the coarse group splitters between groups.
  std::vector<Key> boundary_;
  std::uint64_t wire_control_bytes_ = 0;
  std::uint64_t wire_data_bytes_ = 0;
  // Partition-strategy accumulators for the current run, folded into
  // stats_.partition by finalize(); the recovery supervisor resets them per
  // attempt so only the successful attempt is reported. Written by the
  // master (rounds, probe keys) and by every rank (level-1 items) —
  // single-threaded DES, so plain members suffice.
  std::uint64_t part_rounds_ = 1;
  std::uint64_t part_probe_keys_ = 0;
  std::uint64_t part_level1_items_ = 0;
  std::uint64_t part_groups_ = 1;
  // Recovery supervisor state (only populated between run_recovering's
  // entry and its success): per-attempt inputs with dead shards re-dealt,
  // per-rank attempt outcomes, and the once-per-rank abort fan-out guard.
  bool recovery_active_ = false;
  std::vector<std::vector<Key>> attempt_input_;
  std::vector<AttemptOutcome> outcomes_;
  std::vector<char> abort_sent_;
  std::vector<std::size_t> final_members_;
  // The exactly-once audit's slot map, armed over the attempt's input
  // before every cluster run of this sort.
  AuditSlots audit_slots_;
  bool claimed_ = false;  // see claim_sort

  template <typename K, typename C>
  friend sim::SimTime sort_simultaneously(
      rt::Cluster<SortMsg<K>>& cluster,
      std::vector<DistributedSorter<K, C>*> sorters);
};

// Runs several sorters over the same cluster in one simulation — the
// paper's "sort multiple different data simultaneously". Each sorter must
// have a distinct sort_id and its input installed via set_input(), and must
// not have sorted before. Not recovery-aware: a cluster with a crash
// schedule or a sorter with recovery enabled is rejected (use
// DistributedSorter::run).
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
  for (auto* sorter : sorters) {
    sorter->claim_sort();
    sorter->audit_slots_.arm(sorter->input_);
  }
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
