// Per-rank metrics registry: counters, gauges, and HDR-style log-linear
// histograms, mergeable across ranks the same way RunningStats::merge folds
// partial streams.
//
// Cost model: machines in this codebase are cooperatively scheduled
// coroutines on one OS thread, so metric updates are plain integer writes —
// no locks, no atomics. The *lookup* (name -> instrument) is a map probe;
// hot paths should resolve an instrument once and bump the returned
// reference (see DistributedSorter's exchange loop), which makes an update
// a single add on a cached pointer.
//
// Naming scheme (docs/ARCHITECTURE.md "Observability"):
//   <subsystem>.<object>.<property>[_<unit>]
// e.g. sort.exchange.chunks_sent, net.nic.bytes_received, comm.reliable.retransmits.
// Counters are monotone totals; gauges are last-written levels (merge takes
// the max — every gauge in this codebase is a peak or a high-water mark);
// histograms record value distributions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace pgxd::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void merge(const Counter& o) { v_ += o.v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }
  // Gauges in this codebase are peaks/high-water marks; merging ranks keeps
  // the cluster-wide peak.
  void merge(const Gauge& o) { v_ = v_ > o.v_ ? v_ : o.v_; }

 private:
  double v_ = 0.0;
};

// HDR-style log-linear histogram over unsigned 64-bit values: one octave per
// power of two, kSubBuckets linear sub-buckets per octave, so the quantile
// error is bounded by 1/kSubBuckets (~3%) at any magnitude. Values 0..
// kSubBuckets-1 are exact. Memory: one u64 per bucket, ~2KB total.
class LogHistogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;
  // Octaves above the linear range: values with bit_width in
  // (kSubBits, 64], each contributing kSubBuckets buckets.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBits) * (kSubBuckets / 2);

  void add(std::uint64_t v, std::uint64_t count = 1);

  std::uint64_t count() const { return n_; }
  std::uint64_t min() const { return n_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return n_ ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
  }
  // Smallest recorded-bucket lower bound b such that at least q of the mass
  // is <= bucket b's upper bound. q in [0, 1].
  std::uint64_t quantile(double q) const;

  void merge(const LogHistogram& o);

  // Lower bound of the bucket holding `v` (the histogram's resolution).
  static std::uint64_t bucket_floor(std::uint64_t v);

 private:
  static std::size_t bucket_index(std::uint64_t v);
  static std::uint64_t bucket_lower(std::size_t index);

  std::vector<std::uint64_t> counts_;  // lazily sized to kBucketCount
  std::uint64_t n_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sum_ = 0;
};

// One rank's metrics. Instruments are created on first use and live for the
// registry's lifetime, so references returned here stay valid — resolve
// once, bump many times.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) { return counters_[key(name)]; }
  Gauge& gauge(std::string_view name) { return gauges_[key(name)]; }
  LogHistogram& histogram(std::string_view name) {
    return histograms_[key(name)];
  }

  // Read-only views for exporters/tests; zero-valued instruments included.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }

  std::uint64_t counter_value(std::string_view name) const {
    auto it = counters_.find(key(name));
    return it == counters_.end() ? 0 : it->second.value();
  }
  double gauge_value(std::string_view name) const {
    auto it = gauges_.find(key(name));
    return it == gauges_.end() ? 0.0 : it->second.value();
  }

  // Folds another rank's registry into this one: counters add, gauges keep
  // the max, histograms merge bucket-wise. Instruments present only in
  // `other` are created here.
  void merge(const MetricsRegistry& other);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, min,
  // max, mean, p50, p90, p99}}} as one object.
  void write_json(JsonWriter& w) const;

 private:
  static std::string key(std::string_view name) { return std::string(name); }

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

// Merges a set of per-rank registries into one cluster-wide view.
MetricsRegistry merge_all(const std::vector<MetricsRegistry>& per_rank);

}  // namespace pgxd::obs
