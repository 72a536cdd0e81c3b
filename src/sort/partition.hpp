// Partitioning strategies — the splitter-determination seam of the
// pipeline, factored out of the one-shot sample path so the sorter can
// scale past the paper's single-level scheme.
//
//   kOneLevelSample  — the paper's regular sampling (Sec. IV steps 2-3):
//                      every rank ships X = read_buffer / p bytes of
//                      samples to the master, which selects p-1 splitters
//                      in one shot. No balance guarantee beyond the sample
//                      density.
//   kHistogramRefine — Histogram Sort with Sampling (Harsh, Kale,
//                      Solomonik): the master starts from a 1/8-density
//                      sample and iteratively certifies candidate
//                      splitters by their exact global ranks (a histogram
//                      round: probes go down the sorter's 4-ary scope
//                      tree, rank brackets are summed on the way up),
//                      drawing new candidates inside the still-unresolved
//                      rank brackets until every boundary is within the
//                      configured epsilon of its target rank or the round
//                      budget is spent. Guaranteed eps-balance on distinct
//                      keys, paid for in probe and draw traffic.
//   kTwoLevelAms     — AMS-style two-level recursion (Axtmann et al.,
//                      "Practical Massively Parallel Sorting"): ranks are
//                      split into ~sqrt(p) contiguous groups; coarse
//                      splitters, sent down the scope tree, route whole
//                      buckets to one partner per group (fan-out sqrt(p),
//                      not p), then each group runs the one-level
//                      partition internally. Caps both the per-rank
//                      connection count and the O(p^2) splitter and
//                      counts traffic of the flat scheme.
//
// Everything in this header is pure host-side logic (no simulation state):
// the refinement engine the histogram root runs, the member-side
// rank-counting and candidate-draw kernels, and the AMS group geometry.
// The sorter drives them over its scope tree; bench/ablation_partition
// measures all three schemes by full simulated sorts.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"
#include "sort/samples.hpp"

namespace pgxd::sort {

// Partition strategy (SortConfig::partition).
enum class PartitionScheme {
  kOneLevelSample,   // paper baseline: one-shot regular sampling
  kHistogramRefine,  // iterative splitter refinement to an epsilon target
  kTwoLevelAms,      // two-level recursion over ~sqrt(p) rank groups
};

// ---- AMS group geometry ----------------------------------------------------

// Number of rank groups for a q-member sort: ~sqrt(q), at least 2, and
// never more than q/2 so every group has >= 2 members. Memberships too
// small to split (q < 4) collapse to one group, i.e. the flat scheme.
inline std::size_t ams_group_count(std::size_t q) {
  if (q < 4) return 1;
  const auto g = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(q))));
  return std::clamp<std::size_t>(g, 2, q / 2);
}

// Contiguous balanced group layout over member indices 0..q-1. Contiguity
// is load-bearing: the coarse splitters order the groups, so contiguous
// member ranges keep the global output sorted by rank.
struct AmsLayout {
  std::size_t q = 0;
  std::size_t groups = 1;
  std::vector<std::size_t> start;  // groups + 1 prefix over member indices

  std::size_t size(std::size_t g) const { return start[g + 1] - start[g]; }
  std::size_t group_of(std::size_t member_idx) const {
    PGXD_DCHECK(member_idx < q);
    // groups ~ sqrt(q): a linear scan is cheaper than it looks and runs
    // once per rank per sort.
    std::size_t g = 0;
    while (start[g + 1] <= member_idx) ++g;
    return g;
  }
  // The one member of group `g` that receives sender `sender_idx`'s bucket
  // for that group. Spreading senders round-robin over the group keeps the
  // level-1 fan-in balanced at ~q/size(g) senders per receiver.
  std::size_t partner(std::size_t sender_idx, std::size_t g) const {
    return start[g] + sender_idx % size(g);
  }
};

inline AmsLayout ams_layout(std::size_t q) {
  AmsLayout l;
  l.q = q;
  l.groups = ams_group_count(q);
  l.start.assign(l.groups + 1, 0);
  const std::size_t base = q / l.groups;
  const std::size_t rem = q % l.groups;
  for (std::size_t g = 0; g < l.groups; ++g)
    l.start[g + 1] = l.start[g] + base + (g < rem ? 1 : 0);
  PGXD_CHECK(l.start[l.groups] == q);
  return l;
}

// ---- Histogram refinement: member-side kernels -----------------------------

// Fraction of the one-level sample each rank ships under kHistogramRefine;
// the refinement rounds buy back the precision the smaller sample gives up.
inline constexpr std::uint64_t kHistogramSampleDivisor = 8;
// Candidate keys each member returns per unresolved interval per round.
inline constexpr std::size_t kDrawPerInterval = 4;

// Exact local rank bracket of each probe key over this rank's sorted data:
// lo[i] = #keys strictly below probes[i], hi[i] = #keys <= probes[i].
// Summed across ranks these become exact global rank brackets — the
// histogram round's payload. Probes must be sorted (brackets then come out
// monotone, which the master relies on).
template <typename Key, typename Comp = Less>
void count_ranks(std::span<const Key> sorted, std::span<const Key> probes,
                 std::vector<std::uint64_t>& lo, std::vector<std::uint64_t>& hi,
                 Comp comp = {}) {
  PGXD_DCHECK(std::is_sorted(sorted.begin(), sorted.end(), comp));
  PGXD_DCHECK(std::is_sorted(probes.begin(), probes.end(), comp));
  lo.resize(probes.size());
  hi.resize(probes.size());
  auto it_lo = sorted.begin();
  auto it_hi = sorted.begin();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    it_lo = std::lower_bound(it_lo, sorted.end(), probes[i], comp);
    it_hi = std::upper_bound(it_hi, sorted.end(), probes[i], comp);
    lo[i] = static_cast<std::uint64_t>(it_lo - sorted.begin());
    hi[i] = static_cast<std::uint64_t>(it_hi - sorted.begin());
  }
}

// A half-open key interval a draw request asks candidates from. Ends are
// exclusive: keys equal to `lo` or `hi` already have certified ranks.
// has_lo/has_hi false means the interval is open toward -inf/+inf.
template <typename Key>
struct RefineInterval {
  Key lo{};
  Key hi{};
  bool has_lo = false;
  bool has_hi = false;
};

// Up to `per_interval` evenly spaced local keys strictly inside each
// interval — the member-side half of a draw round, for member `idx` of a
// `q`-member scope. Draw i of the k taken from the m local keys inside an
// interval sits at phased_position(i, k, m, idx, q), so the members' draws
// interleave instead of repeating the same local quantiles. Returns the
// candidates for all intervals concatenated; sorted when the intervals are
// sorted and disjoint, as HistogramRefiner::draw_intervals() yields them.
template <typename Key, typename Comp = Less>
std::vector<Key> draw_candidates(std::span<const Key> sorted,
                                 std::span<const RefineInterval<Key>> intervals,
                                 std::size_t per_interval, std::size_t idx,
                                 std::size_t q, Comp comp = {}) {
  std::vector<Key> out;
  for (const auto& iv : intervals) {
    auto first = iv.has_lo
                     ? std::upper_bound(sorted.begin(), sorted.end(), iv.lo, comp)
                     : sorted.begin();
    auto last = iv.has_hi
                    ? std::lower_bound(first, sorted.end(), iv.hi, comp)
                    : sorted.end();
    const auto m = static_cast<std::size_t>(last - first);
    if (m == 0) continue;
    const std::size_t take = std::min(per_interval, m);
    for (std::size_t i = 0; i < take; ++i)
      out.push_back(first[phased_position(i, take, m, idx, q)]);
  }
  return out;
}

// Thins a sorted key pool (duplicates allowed) to at most `cap` evenly
// spaced distinct keys strictly inside each of the sorted, disjoint
// `intervals`; keys outside every interval are dropped, and an interval
// holding at most `cap` distinct keys keeps them all. Every scope-tree node
// runs it over the union of its subtree's draws before replying, and the
// refiner's absorb_draws() caps the root's pool with it, so no draw reply
// carries more than `cap` keys per interval.
template <typename Key, typename Comp = Less>
std::vector<Key> thin_per_interval(std::vector<Key> pool,
                                   std::span<const RefineInterval<Key>> intervals,
                                   std::size_t cap, Comp comp = {}) {
  PGXD_DCHECK(std::is_sorted(pool.begin(), pool.end(), comp));
  pool.erase(std::unique(pool.begin(), pool.end(),
                         [&](const Key& a, const Key& b) { return !comp(a, b); }),
             pool.end());
  std::vector<Key> out;
  for (const auto& iv : intervals) {
    auto first = iv.has_lo
                     ? std::upper_bound(pool.begin(), pool.end(), iv.lo, comp)
                     : pool.begin();
    auto last = iv.has_hi ? std::lower_bound(first, pool.end(), iv.hi, comp)
                          : pool.end();
    const auto avail = static_cast<std::size_t>(last - first);
    const std::size_t take = std::min(cap, avail);
    for (std::size_t i = 0; i < take; ++i)
      out.push_back(first[(i + 1) * avail / (take + 1)]);
  }
  return out;
}

// ---- Histogram refinement: master-side engine ------------------------------

// Pure refinement state machine driven by the master rank: feed it exact
// global rank brackets for probe keys, ask it which key intervals still
// need candidates, feed it the draws, repeat. Terminates when every
// boundary's best candidate is within tol = eps * N / (2q) of its target
// rank, or when an interval is exhausted (no key exists strictly inside
// it, so no better splitter exists — duplicate-heavy data; the partition
// plan's duplicate-splitter investigator restores balance downstream).
template <typename Key, typename Comp = Less>
class HistogramRefiner {
 public:
  HistogramRefiner(std::size_t parts, std::uint64_t total_n, double epsilon,
                   Comp comp = {})
      : parts_(parts), total_n_(total_n), comp_(comp) {
    PGXD_CHECK(parts >= 1);
    PGXD_CHECK(epsilon > 0.0);
    const double t = epsilon * static_cast<double>(total_n) /
                     (2.0 * static_cast<double>(parts));
    tol_ = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(t));
    targets_.resize(parts >= 1 ? parts - 1 : 0);
    for (std::size_t j = 0; j + 1 < parts; ++j)
      targets_[j] = (static_cast<std::uint64_t>(j) + 1) * total_n / parts;
    resolved_.assign(targets_.size(), targets_.empty());
  }

  // Registers candidate keys with unknown ranks; returns the deduplicated
  // sorted probe set to be counted this round. Keys already certified are
  // dropped.
  std::vector<Key> seed(std::vector<Key> candidates) {
    std::sort(candidates.begin(), candidates.end(), comp_);
    std::vector<Key> fresh;
    for (const Key& k : candidates) {
      if (!fresh.empty() && !comp_(fresh.back(), k)) continue;  // dup in batch
      if (known(k)) continue;
      fresh.push_back(k);
    }
    pending_ = fresh;
    return fresh;
  }

  // Absorbs the summed global rank brackets for the probe set returned by
  // the last seed() call (lo[i]/hi[i] belong to that set's i-th key), then
  // re-evaluates which boundaries are resolved. One call == one round.
  void absorb_counts(const std::vector<std::uint64_t>& lo,
                     const std::vector<std::uint64_t>& hi) {
    PGXD_CHECK(lo.size() == pending_.size() && hi.size() == pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      PGXD_CHECK_MSG(lo[i] <= hi[i] && hi[i] <= total_n_,
                     "histogram round returned an impossible rank bracket");
      cands_.push_back(Cand{pending_[i], lo[i], hi[i]});
    }
    probe_keys_ += pending_.size();
    pending_.clear();
    std::sort(cands_.begin(), cands_.end(),
              [this](const Cand& a, const Cand& b) {
                return comp_(a.key, b.key);
              });
    ++rounds_;
    for (std::size_t j = 0; j < targets_.size(); ++j)
      if (!resolved_[j] && best_err(j) <= tol_) resolved_[j] = true;
  }

  bool done() const {
    for (bool r : resolved_)
      if (!r) return false;
    return true;
  }

  // Key intervals bracketing each unresolved boundary's target rank;
  // adjacent boundaries sharing a bracket are merged into one interval.
  std::vector<RefineInterval<Key>> draw_intervals() const {
    std::vector<RefineInterval<Key>> out;
    for (std::size_t j = 0; j < targets_.size(); ++j) {
      if (resolved_[j]) continue;
      RefineInterval<Key> iv = bracket(targets_[j]);
      if (!out.empty() && same_interval(out.back(), iv)) continue;
      out.push_back(iv);
    }
    return out;
  }

  // Every member contributes draws per interval, so the raw pool grows
  // O(q) keys per unresolved interval cluster-wide; probing all of it
  // would put O(q^2) keys per round on the wire without converging any
  // faster than an evenly spaced subset (draws are rank-uniform inside
  // the bracket either way). The cap bounds the next probe set at
  // kProbeCapPerInterval * intervals keys, and every scope-tree node
  // thins its subtree's draws to the same cap before replying.
  static constexpr std::size_t kProbeCapPerInterval = 8;

  // Registers a draw round's yield and marks boundaries whose interval
  // produced nothing as exhausted (no key exists strictly inside the
  // bracket, so the best certified candidate is final). Returns the fresh
  // probe set for the next counting round, capped per interval. No
  // certified key lies strictly inside an unresolved boundary's bracket
  // (its own rank bracket would contain the target), so capping before
  // seed() drops known keys loses no fresh one.
  std::vector<Key> absorb_draws(std::vector<Key> drawn) {
    std::sort(drawn.begin(), drawn.end(), comp_);
    const std::vector<RefineInterval<Key>> ivs = draw_intervals();
    std::vector<Key> fresh = seed(thin_per_interval<Key, Comp>(
        std::move(drawn), ivs, kProbeCapPerInterval, comp_));
    for (std::size_t j = 0; j < targets_.size(); ++j) {
      if (resolved_[j]) continue;
      const RefineInterval<Key> iv = bracket(targets_[j]);
      bool fed = false;
      for (const Key& k : fresh) {
        const bool above_lo = !iv.has_lo || comp_(iv.lo, k);
        const bool below_hi = !iv.has_hi || comp_(k, iv.hi);
        if (above_lo && below_hi) {
          fed = true;
          break;
        }
      }
      if (!fed) resolved_[j] = true;  // exhausted: nothing left to certify
    }
    return fresh;
  }

  // Final splitters: per boundary the certified candidate with the
  // smallest rank error, chosen left-to-right with a monotone index floor
  // so the result is sorted even when errors tie across boundaries.
  std::vector<Key> splitters() const {
    std::vector<Key> out;
    if (targets_.empty()) return out;
    // No certified candidates only happens when the whole dataset is
    // (close to) empty — mirror select_splitters' degenerate behavior.
    if (cands_.empty()) return std::vector<Key>(targets_.size(), Key{});
    out.reserve(targets_.size());
    std::size_t floor_idx = 0;
    for (std::size_t j = 0; j < targets_.size(); ++j) {
      std::size_t best = floor_idx;
      std::uint64_t be = err(cands_[floor_idx], targets_[j]);
      for (std::size_t c = floor_idx + 1; c < cands_.size(); ++c) {
        const std::uint64_t e = err(cands_[c], targets_[j]);
        if (e < be) {
          be = e;
          best = c;
        }
        if (cands_[c].lo > targets_[j] + be) break;  // monotone: only worse
      }
      out.push_back(cands_[best].key);
      floor_idx = best;
    }
    return out;
  }

  // Worst relative boundary error, in the epsilon metric: eps_achieved =
  // 2q * max_err / N, i.e. the smallest epsilon this refinement would have
  // satisfied.
  double achieved_epsilon() const {
    if (targets_.empty() || total_n_ == 0) return 0.0;
    std::uint64_t worst = 0;
    for (std::size_t j = 0; j < targets_.size(); ++j)
      worst = std::max(worst, best_err(j));
    return 2.0 * static_cast<double>(parts_) * static_cast<double>(worst) /
           static_cast<double>(total_n_);
  }

  std::size_t rounds() const { return rounds_; }
  std::size_t probe_keys() const { return probe_keys_; }
  std::uint64_t tolerance() const { return tol_; }
  // Desired global rank of boundary j (j+1 parts to its left).
  std::uint64_t target(std::size_t j) const { return targets_[j]; }

 private:
  struct Cand {
    Key key;
    std::uint64_t lo;  // global rank bracket: #keys < key ...
    std::uint64_t hi;  // ... #keys <= key
  };

  static std::uint64_t err(const Cand& c, std::uint64_t target) {
    if (c.lo > target) return c.lo - target;
    if (c.hi < target) return target - c.hi;
    return 0;
  }

  std::uint64_t best_err(std::size_t j) const {
    std::uint64_t be = std::numeric_limits<std::uint64_t>::max();
    for (const Cand& c : cands_) be = std::min(be, err(c, targets_[j]));
    return be;
  }

  bool known(const Key& k) const {
    for (const Cand& c : cands_)
      if (!comp_(c.key, k) && !comp_(k, c.key)) return true;
    return false;
  }

  // Tightest certified bracket around a target rank: the largest candidate
  // whose whole bracket sits below the target, and the smallest whose
  // whole bracket sits above.
  RefineInterval<Key> bracket(std::uint64_t target) const {
    RefineInterval<Key> iv;
    for (const Cand& c : cands_) {
      if (c.hi < target) {
        iv.lo = c.key;
        iv.has_lo = true;
      } else if (c.lo > target) {
        iv.hi = c.key;
        iv.has_hi = true;
        break;  // candidates are sorted: first one past is the tightest
      }
    }
    return iv;
  }

  bool same_interval(const RefineInterval<Key>& a,
                     const RefineInterval<Key>& b) const {
    auto eq = [this](const Key& x, const Key& y) {
      return !comp_(x, y) && !comp_(y, x);
    };
    return a.has_lo == b.has_lo && a.has_hi == b.has_hi &&
           (!a.has_lo || eq(a.lo, b.lo)) && (!a.has_hi || eq(a.hi, b.hi));
  }

  std::size_t parts_;
  std::uint64_t total_n_;
  Comp comp_;
  std::uint64_t tol_ = 1;
  std::vector<std::uint64_t> targets_;
  std::vector<bool> resolved_;
  std::vector<Cand> cands_;  // sorted by key
  std::vector<Key> pending_;
  std::size_t rounds_ = 0;
  std::size_t probe_keys_ = 0;
};

}  // namespace pgxd::sort
