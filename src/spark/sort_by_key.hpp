// Spark 1.6.1 sortByKey() baseline on the simulated cluster.
//
// Mirrors the structure the paper describes (Sec. II): "sample, map and
// reduce" stages with bulk-synchronous boundaries, range partitioning from
// a small random sample (RangePartitioner), shuffle materialization, and
// TimSort as the local sort in the reduce stage. Data movement is real;
// time is charged through the shared cost model plus the Spark cost profile.
// The reduce stage charges TimSort by the run decomposition it would find
// (timsort_runs) and sorts with std::stable_sort: a stable sort's output is
// unique under a strict weak order, so it is TimSort's output.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "runtime/buffered_writer.hpp"
#include "runtime/cluster.hpp"
#include "sim/trace.hpp"
#include "sort/samples.hpp"
#include "spark/cost_profile.hpp"

namespace pgxd::spark {

// The number of runs TimSort (Peters, 2002) pushes when it sorts `a`, from
// one scan of the unsorted keys. A run starts strictly descending if its
// second key is below its first, and then extends while keys strictly
// fall; otherwise it extends while they do not fall. A run shorter than
// minrun takes min(n - lo, minrun) keys, as TimSort's binary insertion
// sort extends it. TimSort reverses and insertion-sorts only inside the run
// it is counting, so the scan sees the runs it saw. Below 2 keys there is
// no run; below 64 the whole array is one.
template <typename Key, typename Comp>
std::size_t timsort_runs(std::span<const Key> a, Comp comp) {
  constexpr std::size_t kMinMerge = 64;
  const std::size_t n = a.size();
  if (n < 2) return 0;
  if (n < kMinMerge) return 1;
  // minrun: n's top bits, plus one if any bit shifted out was set.
  std::size_t min_run = n;
  std::size_t shifted_out = 0;
  while (min_run >= kMinMerge) {
    shifted_out |= min_run & 1;
    min_run >>= 1;
  }
  min_run += shifted_out;
  std::size_t runs = 0;
  for (std::size_t lo = 0; lo < n; ++runs) {
    std::size_t end = lo + 1;
    if (end < n) {
      const bool descending = comp(a[end], a[lo]);
      ++end;
      while (end < n && comp(a[end], a[end - 1]) == descending) ++end;
    }
    lo += std::max(end - lo, std::min(n - lo, min_run));
  }
  return runs;
}

template <typename Key>
struct SparkMsg {
  std::vector<Key> keys;

  // User-declared constructors are load-bearing; see the note on
  // rt::Message about GCC 12 and aggregate temporaries in co_await.
  SparkMsg() = default;
  explicit SparkMsg(std::vector<Key> k) : keys(std::move(k)) {}
};

enum class Stage : std::size_t {
  kSample = 0,
  kMapShuffle = 1,   // classify + shuffle write (serialize)
  kReduceSort = 2,   // fetch + deserialize + TimSort
};
inline constexpr std::size_t kStageCount = 3;

const char* stage_name(Stage s);

struct SparkStats {
  std::array<sim::SimTime, kStageCount> stage_time{};
  sim::SimTime total_time = 0;
  std::uint64_t wire_bytes = 0;
  pgxd::BalanceReport balance;

  sim::SimTime& operator[](Stage s) { return stage_time[static_cast<std::size_t>(s)]; }
  sim::SimTime operator[](Stage s) const { return stage_time[static_cast<std::size_t>(s)]; }
};

template <typename Key, typename Comp = std::less<Key>>
class SparkSortByKey {
 public:
  using Msg = SparkMsg<Key>;
  using Cluster = rt::Cluster<Msg>;

  static constexpr int kTagSamples = 100;
  static constexpr int kTagBounds = 101;
  static constexpr int kTagData = 102;

  SparkSortByKey(Cluster& cluster, SparkCostProfile profile = {}, Comp comp = {})
      : cluster_(cluster), profile_(profile), comp_(comp) {
    output_.resize(cluster.size());
    stage_max_.fill(0);
  }

  // Installs shards, runs the three-stage job, fills stats.
  void run(std::vector<std::vector<Key>> shards) {
    PGXD_CHECK(shards.size() == cluster_.size());
    input_ = std::move(shards);
    const sim::SimTime elapsed = cluster_.run(
        [this](rt::Machine& m) { return machine_program(m); });
    stats_.total_time = elapsed;
    stats_.stage_time = stage_max_;
    std::vector<std::uint64_t> sizes;
    for (const auto& part : output_) sizes.push_back(part.size());
    stats_.balance = pgxd::balance_report(sizes);
    stats_.wire_bytes = wire_bytes_;
  }

  const std::vector<std::vector<Key>>& partitions() const { return output_; }
  const SparkStats& stats() const { return stats_; }

  // Optional span tracing (one lane per machine, one span per stage).
  void set_trace(sim::Trace* trace) { trace_ = trace; }

 private:
  static constexpr std::size_t kDriver = 0;

  std::uint64_t wire_size(std::size_t count) const {
    return static_cast<std::uint64_t>(
        static_cast<double>(count * sizeof(Key)) * profile_.row_overhead_factor);
  }

  sim::SimTime serialization_time(std::uint64_t bytes) const {
    return static_cast<sim::SimTime>(
        profile_.serialization_ns_per_byte * static_cast<double>(bytes));
  }

  sim::Task<void> machine_program(rt::Machine& m) {
    auto& comm = cluster_.comm();
    auto& sim = cluster_.simulator();
    const std::size_t rank = m.rank();
    const std::size_t p = cluster_.size();
    sim::SimTime mark = sim.now();
    auto stamp = [&](Stage s) {
      stage_max_[static_cast<std::size_t>(s)] =
          std::max(stage_max_[static_cast<std::size_t>(s)], sim.now() - mark);
      if (trace_) trace_->record(rank, stage_name(s), mark, sim.now());
      mark = sim.now();
    };

    const auto& in = input_[rank];
    const std::size_t n = in.size();

    // --- Stage 1: sample -> driver computes range bounds -------------------
    co_await m.compute(profile_.stage_overhead);
    std::vector<Key> sample;
    {
      const std::size_t want = std::min(profile_.samples_per_partition, n);
      sample.reserve(want);
      // Reservoir sampling over the unsorted shard (RangePartitioner.sketch).
      for (std::size_t i = 0; i < n; ++i) {
        if (sample.size() < want) {
          sample.push_back(in[i]);
        } else {
          const std::uint64_t r = m.rng().bounded(i + 1);
          if (r < want) sample[r] = in[i];
        }
      }
      co_await m.compute(static_cast<sim::SimTime>(
          static_cast<double>(m.cost().copy_time(n)) * profile_.cpu_factor));
    }
    if (rank != kDriver) {
      const std::uint64_t bytes = wire_size(sample.size());
      wire_bytes_ += bytes;
      co_await comm.send(rank, kDriver, kTagSamples, Msg{std::move(sample)},
                         bytes);
    } else {
      std::vector<Key> pool = std::move(sample);
      for (std::size_t i = 0; i + 1 < p; ++i) {
        auto msg = co_await comm.recv(kDriver, kTagSamples);
        pool.insert(pool.end(), msg.payload.keys.begin(),
                    msg.payload.keys.end());
      }
      std::sort(pool.begin(), pool.end(), comp_);
      bounds_ = sort::select_splitters<Key, Comp>(pool, p, comp_);
      for (std::size_t dst = 0; dst < p; ++dst) {
        const std::uint64_t bytes = wire_size(bounds_.size());
        if (dst != kDriver) wire_bytes_ += bytes;
        comm.post(kDriver, dst, kTagBounds, Msg{bounds_}, bytes);
      }
    }
    auto bounds_msg = co_await comm.recv(rank, kTagBounds);
    const std::vector<Key> bounds = std::move(bounds_msg.payload.keys);
    // Stage boundary: every task of the sample stage must finish.
    co_await comm.barrier(rank);
    stamp(Stage::kSample);

    // --- Stage 2: map — classify rows, write shuffle files -----------------
    co_await m.compute(profile_.stage_overhead);
    std::vector<std::vector<Key>> buckets(p);
    for (auto& b : buckets) b.reserve(n / p + 1);
    for (const auto& key : in) {
      const auto it = std::upper_bound(bounds.begin(), bounds.end(), key, comp_);
      buckets[static_cast<std::size_t>(it - bounds.begin())].push_back(key);
    }
    // Row-at-a-time classification: a linear scan with a short binary
    // search over the (in-cache) p-1 bounds per row — scan-cost class, not
    // the cost model's cache-missy large-array search.
    co_await m.compute(static_cast<sim::SimTime>(
        static_cast<double>(m.cost().merge_time(n)) * profile_.cpu_factor));
    co_await m.compute(serialization_time(wire_size(n)));
    // Spark 1.6 shuffle: map outputs are fully materialized before any
    // reduce fetch begins — a hard stage barrier, no overlap.
    co_await comm.barrier(rank);
    stamp(Stage::kMapShuffle);

    // --- Stage 3: reduce — fetch blocks, deserialize, TimSort --------------
    // Shuffle outputs stream through request buffers in block-sized chunks
    // (the same buffered-write mechanism as the PGX.D data manager); an
    // empty message per destination marks end-of-stream.
    co_await m.compute(profile_.stage_overhead);
    {
      rt::BufferedWriter<Key> writer(
          p, profile_.shuffle_block_bytes,
          [&](std::size_t dst, std::vector<Key> block) {
            const std::uint64_t bytes = wire_size(block.size());
            wire_bytes_ += bytes;
            comm.post(rank, dst, kTagData, Msg{std::move(block)}, bytes);
          });
      for (std::size_t step = 1; step < p; ++step) {
        const std::size_t dst = (rank + step) % p;
        writer.write(dst, buckets[dst]);
        buckets[dst].clear();
        buckets[dst].shrink_to_fit();
      }
      writer.flush_all();
      for (std::size_t step = 1; step < p; ++step) {
        const std::size_t dst = (rank + step) % p;
        comm.post(rank, dst, kTagData, Msg{{}}, 16);  // end-of-stream marker
      }
    }
    auto& out = output_[rank];
    out = std::move(buckets[rank]);
    std::uint64_t fetched_bytes = 0;
    for (std::size_t done = 0; done + 1 < p;) {
      auto msg = co_await comm.recv(rank, kTagData);
      if (msg.payload.keys.empty()) {
        ++done;
        continue;
      }
      fetched_bytes += msg.bytes;
      out.insert(out.end(), msg.payload.keys.begin(), msg.payload.keys.end());
    }
    co_await m.compute(serialization_time(fetched_bytes));  // deserialize
    // TimSort is adaptive: charge by the number of runs it finds in the
    // fetched partition — "it performs better when the data is partially
    // sorted" is thereby measurable (see bench/ablation_presorted).
    const std::size_t runs = timsort_runs(std::span<const Key>(out), comp_);
    std::stable_sort(out.begin(), out.end(), comp_);
    const sim::SimTime serial = m.cost().adaptive_sort_time(
        out.size(), std::max<std::size_t>(1, runs));
    co_await m.compute(static_cast<sim::SimTime>(
        static_cast<double>(m.cost().parallel(serial, m.threads())) *
        profile_.cpu_factor));
    co_await comm.barrier(rank);
    stamp(Stage::kReduceSort);
    co_return;
  }

  Cluster& cluster_;
  SparkCostProfile profile_;
  Comp comp_;
  std::vector<std::vector<Key>> input_;
  std::vector<std::vector<Key>> output_;
  std::vector<Key> bounds_;
  std::array<sim::SimTime, kStageCount> stage_max_{};
  SparkStats stats_;
  std::uint64_t wire_bytes_ = 0;
  sim::Trace* trace_ = nullptr;
};

}  // namespace pgxd::spark
