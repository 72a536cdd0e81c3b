#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace pgxd::obs {

// ---- LogHistogram ----------------------------------------------------------
//
// Layout: values below kSubBuckets map to bucket == value (exact). A value
// with bit_width w > kSubBits lands in octave (w - kSubBits); within the
// octave the top kSubBits-1 bits below the leading bit select one of
// kSubBuckets/2 linear sub-buckets (the lower half of each octave overlaps
// the previous octave's range, so only half the sub-buckets are new).

std::size_t LogHistogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const int w = static_cast<int>(std::bit_width(v));  // > kSubBits
  const int octave = w - kSubBits;
  const auto sub = static_cast<std::size_t>(
      (v >> (w - kSubBits)) & ((kSubBuckets / 2) - 1));
  return kSubBuckets + static_cast<std::size_t>(octave - 1) * (kSubBuckets / 2) +
         sub;
}

std::uint64_t LogHistogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t rel = index - kSubBuckets;
  const int octave = static_cast<int>(rel / (kSubBuckets / 2)) + 1;
  const std::uint64_t sub = rel % (kSubBuckets / 2);
  // Leading bit at position (kSubBits - 1 + octave); sub-bucket stride is
  // 2^octave.
  return ((kSubBuckets / 2) + sub) << octave;
}

std::uint64_t LogHistogram::bucket_floor(std::uint64_t v) {
  return bucket_lower(bucket_index(v));
}

void LogHistogram::add(std::uint64_t v, std::uint64_t count) {
  if (count == 0) return;
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  counts_[bucket_index(v)] += count;
  if (n_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  n_ += count;
  sum_ += v * count;
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (n_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(n_ - 1));  // 0-based rank
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen > target) {
      // Clamp to the observed extremes so tiny histograms report exact
      // values instead of bucket bounds.
      return std::clamp(bucket_lower(b), min_, max_);
    }
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& o) {
  if (o.n_ == 0) return;
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += o.counts_[b];
  if (n_ == 0 || o.min_ < min_) min_ = o.min_;
  max_ = std::max(max_, o.max_);
  n_ += o.n_;
  sum_ += o.sum_;
}

// ---- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.kv("count", h.count());
    w.kv("min", h.min());
    w.kv("max", h.max());
    w.kv("mean", h.mean());
    w.kv("p50", h.quantile(0.50));
    w.kv("p90", h.quantile(0.90));
    w.kv("p99", h.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

MetricsRegistry merge_all(const std::vector<MetricsRegistry>& per_rank) {
  MetricsRegistry merged;
  for (const auto& r : per_rank) merged.merge(r);
  return merged;
}

}  // namespace pgxd::obs
