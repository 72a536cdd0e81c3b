// The statistical balance-guarantee harness for the partitioning layer.
//
// Three levels of scrutiny:
//   1. Unit tests for the pure kernels in sort/partition.hpp: the AMS group
//      geometry, the member-side rank-counting and candidate-draw kernels,
//      and the master-side HistogramRefiner state machine.
//   2. A pure-logic multi-rank refinement harness that drives the refiner
//      exactly the way the sorter's master does — count round, draw round,
//      repeat — over synthetic shards, up to p = 4096 partitions, and
//      cross-checks the refiner's claimed epsilon against the splitters'
//      true global rank brackets. This is where the "to p=4096" guarantee
//      lives: no simulation needed, so the full scale is cheap to test.
//   3. End-to-end simulated sorts at p in {64, 256, 1024}: every scheme
//      stays sorted, meets its scheme-appropriate imbalance bound, and all
//      three schemes produce the identical final sorted sequence. The
//      k-ary scope tree the scale-out schemes' control rounds run over is
//      checked here too: its shape, and the master's fan-out in a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
#include "sim/trace.hpp"
#include "sort/partition.hpp"

namespace pgxd::sort {
namespace {

using Key = std::uint64_t;

// ---- AMS group geometry ----------------------------------------------------

TEST(AmsGeometry, GroupCountBounds) {
  EXPECT_EQ(ams_group_count(1), 1u);
  EXPECT_EQ(ams_group_count(2), 1u);
  EXPECT_EQ(ams_group_count(3), 1u);
  EXPECT_EQ(ams_group_count(4), 2u);
  EXPECT_EQ(ams_group_count(16), 4u);
  EXPECT_EQ(ams_group_count(64), 8u);
  EXPECT_EQ(ams_group_count(1024), 32u);
  EXPECT_EQ(ams_group_count(4096), 64u);
  for (std::size_t q = 4; q <= 4096; q = q * 2 + 1) {
    const std::size_t g = ams_group_count(q);
    EXPECT_GE(g, 2u) << q;
    EXPECT_LE(g, q / 2) << q;  // every group has >= 2 members
  }
}

TEST(AmsGeometry, LayoutIsContiguousAndBalanced) {
  for (std::size_t q : {4u, 5u, 9u, 17u, 64u, 100u, 1000u, 1024u, 4096u}) {
    const AmsLayout l = ams_layout(q);
    ASSERT_EQ(l.start.size(), l.groups + 1) << q;
    EXPECT_EQ(l.start.front(), 0u);
    EXPECT_EQ(l.start.back(), q);
    std::size_t min_sz = q, max_sz = 0;
    for (std::size_t g = 0; g < l.groups; ++g) {
      min_sz = std::min(min_sz, l.size(g));
      max_sz = std::max(max_sz, l.size(g));
      for (std::size_t m = l.start[g]; m < l.start[g + 1]; ++m)
        EXPECT_EQ(l.group_of(m), g) << q << " member " << m;
    }
    EXPECT_LE(max_sz - min_sz, 1u) << q;  // balanced within one member
  }
}

TEST(AmsGeometry, PartnerStaysInGroupAndSpreadsSenders) {
  const AmsLayout l = ams_layout(20);  // groups of 5
  for (std::size_t g = 0; g < l.groups; ++g) {
    std::vector<std::size_t> fan_in(l.q, 0);
    for (std::size_t s = 0; s < l.q; ++s) {
      const std::size_t p = l.partner(s, g);
      ASSERT_GE(p, l.start[g]);
      ASSERT_LT(p, l.start[g + 1]);
      ++fan_in[p];
    }
    // Round-robin: every member of the group receives q / size(g) senders
    // give or take one.
    for (std::size_t m = l.start[g]; m < l.start[g + 1]; ++m) {
      EXPECT_GE(fan_in[m], l.q / l.size(g) - 1);
      EXPECT_LE(fan_in[m], l.q / l.size(g) + 1);
    }
  }
}

// ---- Member-side kernels ---------------------------------------------------

TEST(CountRanks, MatchesBruteForce) {
  std::mt19937_64 rng(7);
  std::vector<Key> data(500);
  for (auto& k : data) k = rng() % 100;  // heavy duplication on purpose
  std::sort(data.begin(), data.end());
  std::vector<Key> probes = {0, 3, 17, 17, 42, 99, 250};
  std::sort(probes.begin(), probes.end());
  std::vector<std::uint64_t> lo, hi;
  count_ranks<Key>(data, probes, lo, hi);
  ASSERT_EQ(lo.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto below = static_cast<std::uint64_t>(
        std::count_if(data.begin(), data.end(),
                      [&](Key k) { return k < probes[i]; }));
    const auto at_or_below = static_cast<std::uint64_t>(
        std::count_if(data.begin(), data.end(),
                      [&](Key k) { return k <= probes[i]; }));
    EXPECT_EQ(lo[i], below) << "probe " << probes[i];
    EXPECT_EQ(hi[i], at_or_below) << "probe " << probes[i];
  }
}

TEST(DrawCandidates, StaysStrictlyInsideIntervals) {
  std::vector<Key> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 10 * i;
  std::vector<RefineInterval<Key>> ivs(2);
  ivs[0] = {100, 300, true, true};   // keys 110..290 qualify
  ivs[1] = {800, 0, true, false};    // keys 810.. qualify (open above)
  // 19 keys in each interval: draw i at (i + 1/2) * 19 / 4 for the only
  // member of a one-member scope.
  EXPECT_EQ(draw_candidates<Key>(data, ivs, 4, 0, 1),
            (std::vector<Key>{130, 180, 220, 270, 830, 880, 920, 970}));
  // Member 2 of 3 draws at (i + 5/6) * 19 / 4.
  const auto out = draw_candidates<Key>(data, ivs, 4, 2, 3);
  EXPECT_EQ(out, (std::vector<Key>{140, 190, 240, 290, 840, 890, 940, 990}));
  for (Key k : out) {
    const bool in0 = k > 100 && k < 300;
    const bool in1 = k > 800;
    EXPECT_TRUE(in0 || in1) << k;
  }
}

TEST(DrawCandidates, RespectsPerIntervalCapAndEmptyIntervals) {
  std::vector<Key> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i;
  std::vector<RefineInterval<Key>> ivs(2);
  ivs[0] = {0, 999, true, true};
  ivs[1] = {500, 501, true, true};  // nothing strictly between 500 and 501
  // Cap from the wide interval (998 keys, draw i at (i + 1/2) * 998 / 6),
  // zero from the empty one.
  EXPECT_EQ(draw_candidates<Key>(data, ivs, 6, 0, 1),
            (std::vector<Key>{84, 250, 416, 583, 749, 915}));
}

// q members drawing from one identical run inside one interval together
// pick q * k distinct keys; aligned draws would repeat the same k.
TEST(DrawCandidates, MembersOfOneScopeInterleave) {
  std::vector<Key> data(10000);
  std::iota(data.begin(), data.end(), Key{0});
  const std::vector<RefineInterval<Key>> ivs{{100, 9000, true, true}};
  const std::size_t q = 16;
  std::vector<Key> all;
  for (std::size_t idx = 0; idx < q; ++idx) {
    const auto got = draw_candidates<Key>(data, ivs, kDrawPerInterval, idx, q);
    ASSERT_EQ(got.size(), kDrawPerInterval);
    all.insert(all.end(), got.begin(), got.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), q * kDrawPerInterval);
  EXPECT_GT(all.front(), 100u);
  EXPECT_LT(all.back(), 9000u);
}

TEST(ThinPerInterval, CapsSortsAndDedupsInsideEachInterval) {
  std::vector<Key> pool;
  for (Key k = 0; k < 200; ++k) pool.insert(pool.end(), {k, k});  // dup pairs
  const std::vector<RefineInterval<Key>> ivs{
      {Key{0}, 10, false, true},   // -inf..10: keys 0..9
      {20, 25, true, true},        // keys 21..24, fewer than the cap
      {30, 31, true, true},        // nothing strictly inside
      {100, 0, true, false}};      // 101..+inf: keys 101..199
  const std::size_t cap = 8;
  const auto out = thin_per_interval<Key>(pool, ivs, cap);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
  std::vector<std::size_t> per(ivs.size(), 0);
  for (Key k : out) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      const bool above = !ivs[i].has_lo || k > ivs[i].lo;
      const bool below = !ivs[i].has_hi || k < ivs[i].hi;
      if (above && below) {
        ++per[i];
        ++hits;
      }
    }
    EXPECT_EQ(hits, 1u) << k << " lies strictly inside no interval";
  }
  EXPECT_EQ(per, (std::vector<std::size_t>{cap, 4, 0, cap}));
  // An interval with at most `cap` distinct keys keeps every one of them.
  for (Key k = 21; k <= 24; ++k)
    EXPECT_TRUE(std::binary_search(out.begin(), out.end(), k)) << k;
  EXPECT_TRUE(thin_per_interval<Key>({}, ivs, cap).empty());
}

// ---- HistogramRefiner unit behaviour --------------------------------------

TEST(HistogramRefiner, AllDuplicateDataResolvesImmediately) {
  // One dup run covers every target rank: err = 0 as soon as the key is
  // certified, so one counting round suffices.
  const std::uint64_t n = 1000;
  HistogramRefiner<Key> ref(8, n, 0.05);
  auto probes = ref.seed({77, 77, 77});
  ASSERT_EQ(probes.size(), 1u);  // dups deduplicated
  ref.absorb_counts({0}, {n});
  EXPECT_TRUE(ref.done());
  const auto sp = ref.splitters();
  ASSERT_EQ(sp.size(), 7u);
  for (Key s : sp) EXPECT_EQ(s, 77u);
  EXPECT_EQ(ref.achieved_epsilon(), 0.0);
}

TEST(HistogramRefiner, ExhaustedIntervalStopsRefining) {
  // Two distinct keys, a rank gap between them, and nothing in the middle:
  // after a draw round yields nothing for the bracket the boundary must be
  // declared final instead of looping forever.
  const std::uint64_t n = 100;
  HistogramRefiner<Key> ref(2, n, 0.001);  // tol = 1, target rank 50
  auto probes = ref.seed({10, 20});
  ASSERT_EQ(probes.size(), 2u);
  ref.absorb_counts({0, 60}, {40, 100});  // brackets [0,40] and [60,100]
  ASSERT_FALSE(ref.done());               // target 50 outside both
  const auto ivs = ref.draw_intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_TRUE(ivs[0].has_lo);
  EXPECT_TRUE(ivs[0].has_hi);
  EXPECT_EQ(ivs[0].lo, 10u);
  EXPECT_EQ(ivs[0].hi, 20u);
  const auto fresh = ref.absorb_draws({});  // no key exists inside
  EXPECT_TRUE(fresh.empty());
  EXPECT_TRUE(ref.done());
  const auto sp = ref.splitters();
  ASSERT_EQ(sp.size(), 1u);
  EXPECT_TRUE(sp[0] == 10 || sp[0] == 20);  // best certified candidate
}

// ---- The multi-rank refinement harness, to p = 4096 ------------------------

struct HarnessOutcome {
  std::vector<Key> splitters;
  std::size_t rounds = 0;
  std::size_t probe_keys = 0;
  double achieved = 0.0;
  std::uint64_t tolerance = 0;
};

// Drives the refiner exactly like the sorter's master: seed with a small
// evenly spaced per-rank sample, then alternate counting rounds (exact
// global rank brackets summed across ranks) and draw rounds until done.
HarnessOutcome refine_over(const std::vector<std::vector<Key>>& ranks,
                           std::size_t parts, double eps,
                           std::size_t max_rounds) {
  std::uint64_t total_n = 0;
  for (const auto& r : ranks) total_n += r.size();
  HistogramRefiner<Key> ref(parts, total_n, eps);

  const std::size_t per_rank =
      std::max<std::size_t>(2, parts / kHistogramSampleDivisor);
  std::vector<Key> init;
  for (std::size_t idx = 0; idx < ranks.size(); ++idx) {
    const auto s = regular_samples<Key>(ranks[idx], per_rank, idx, ranks.size());
    init.insert(init.end(), s.begin(), s.end());
  }
  auto probes = ref.seed(std::move(init));

  std::vector<std::uint64_t> lo_sum, hi_sum, lo, hi;
  while (ref.rounds() < max_rounds) {
    lo_sum.assign(probes.size(), 0);
    hi_sum.assign(probes.size(), 0);
    for (const auto& r : ranks) {
      count_ranks<Key>(r, probes, lo, hi);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        lo_sum[i] += lo[i];
        hi_sum[i] += hi[i];
      }
    }
    ref.absorb_counts(lo_sum, hi_sum);
    if (ref.done()) break;
    const auto ivs = ref.draw_intervals();
    std::vector<Key> drawn;
    for (std::size_t idx = 0; idx < ranks.size(); ++idx) {
      const auto got = draw_candidates<Key>(ranks[idx], ivs, kDrawPerInterval,
                                            idx, ranks.size());
      drawn.insert(drawn.end(), got.begin(), got.end());
    }
    probes = ref.absorb_draws(std::move(drawn));
    if (probes.empty()) break;  // every open interval exhausted
  }
  return {ref.splitters(), ref.rounds(), ref.probe_keys(),
          ref.achieved_epsilon(), ref.tolerance()};
}

struct ScaleParam {
  std::size_t parts;
  gen::Distribution dist;
};

class RefinerScale : public ::testing::TestWithParam<ScaleParam> {};

TEST_P(RefinerScale, MeetsEpsilonAtScale) {
  const auto [parts, dist] = GetParam();
  const std::size_t machines = 32;
  const std::size_t total_n = 32 * 4096;  // 131072 keys, >= 32 per partition
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.domain = 1u << 20;
  dcfg.seed = 1234;
  std::vector<std::vector<Key>> ranks(machines);
  std::vector<Key> global;
  for (std::size_t r = 0; r < machines; ++r) {
    ranks[r] = gen::generate_shard(dcfg, total_n, machines, r);
    std::sort(ranks[r].begin(), ranks[r].end());
    global.insert(global.end(), ranks[r].begin(), ranks[r].end());
  }
  std::sort(global.begin(), global.end());

  const double eps = 0.05;
  const auto out = refine_over(ranks, parts, eps, /*max_rounds=*/64);

  ASSERT_EQ(out.splitters.size(), parts - 1);
  EXPECT_TRUE(
      std::is_sorted(out.splitters.begin(), out.splitters.end()));
  // The tolerance is floored at one rank; at parts close to N the floor
  // implies a larger epsilon than requested (1 rank of 32-per-partition
  // is eps = 1/16), and that floor is the real guarantee.
  const double eps_floor = 2.0 * static_cast<double>(parts) *
                           static_cast<double>(out.tolerance) /
                           static_cast<double>(global.size());
  EXPECT_LE(out.achieved, std::max(eps, eps_floor) + 1e-12)
      << "refiner claims it missed the target after " << out.rounds
      << " rounds";
  EXPECT_LE(out.rounds, 32u) << "convergence should be geometric";
  EXPECT_GE(out.rounds, 1u);
  EXPECT_GT(out.probe_keys, 0u);

  // Independent audit: the refiner's claim must hold against the true
  // global rank brackets of the splitters it returned.
  std::vector<std::uint64_t> lo, hi;
  count_ranks<Key>(global, out.splitters, lo, hi);
  for (std::size_t j = 0; j + 1 < parts; ++j) {
    const std::uint64_t target = (j + 1) * global.size() / parts;
    std::uint64_t err = 0;
    if (lo[j] > target)
      err = lo[j] - target;
    else if (hi[j] < target)
      err = target - hi[j];
    EXPECT_LE(err, out.tolerance)
        << "boundary " << j << " off by " << err << " ranks at p=" << parts;
  }
}

std::vector<ScaleParam> scale_grid() {
  std::vector<ScaleParam> out;
  for (std::size_t parts : {64u, 256u, 1024u, 4096u})
    for (auto dist : {gen::Distribution::kUniform,
                      gen::Distribution::kRightSkewed,
                      gen::Distribution::kZipf,
                      gen::Distribution::kFewDistinct})
      out.push_back({parts, dist});
  return out;
}

std::string scale_name(const ::testing::TestParamInfo<ScaleParam>& info) {
  std::string n = "P";
  n += std::to_string(info.param.parts);
  switch (info.param.dist) {
    case gen::Distribution::kUniform: n += "Uniform"; break;
    case gen::Distribution::kRightSkewed: n += "Skewed"; break;
    case gen::Distribution::kZipf: n += "Zipf"; break;
    case gen::Distribution::kFewDistinct: n += "FewDistinct"; break;
    default: n += "Other"; break;
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(UpTo4096, RefinerScale,
                         ::testing::ValuesIn(scale_grid()), scale_name);

// Adversarial presorted input: globally sorted data dealt to the ranks in
// contiguous range slices, so each rank's local keys occupy one narrow
// disjoint band and no local sample resembles the global distribution.
// Rank-count refinement is immune — counting rounds are exact no matter
// where the keys live — and must still certify epsilon.
TEST(RefinerPresorted, ContiguousRangeShardsMeetEpsilon) {
  const std::size_t machines = 32;
  std::mt19937_64 rng(5150);
  std::vector<Key> global(131072);
  for (auto& k : global) k = rng() % (1u << 20);
  std::sort(global.begin(), global.end());
  std::vector<std::vector<Key>> ranks(machines);
  for (std::size_t r = 0; r < machines; ++r)
    ranks[r].assign(
        global.begin() +
            static_cast<std::ptrdiff_t>(r * global.size() / machines),
        global.begin() +
            static_cast<std::ptrdiff_t>((r + 1) * global.size() / machines));
  for (std::size_t parts : {256u, 1024u}) {
    const double eps = 0.05;
    const auto out = refine_over(ranks, parts, eps, /*max_rounds=*/64);
    ASSERT_EQ(out.splitters.size(), parts - 1);
    const double eps_floor = 2.0 * static_cast<double>(parts) *
                             static_cast<double>(out.tolerance) /
                             static_cast<double>(global.size());
    EXPECT_LE(out.achieved, std::max(eps, eps_floor) + 1e-12) << parts;
    std::vector<std::uint64_t> lo, hi;
    count_ranks<Key>(global, out.splitters, lo, hi);
    for (std::size_t j = 0; j + 1 < parts; ++j) {
      const std::uint64_t target = (j + 1) * global.size() / parts;
      std::uint64_t err = 0;
      if (lo[j] > target)
        err = lo[j] - target;
      else if (hi[j] < target)
        err = target - hi[j];
      EXPECT_LE(err, out.tolerance)
          << "boundary " << j << " off by " << err << " ranks at p=" << parts;
    }
  }
}

}  // namespace
}  // namespace pgxd::sort

// ---- End-to-end epsilon-balance under the simulated sorter ------------------

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using sort::PartitionScheme;

std::vector<std::vector<Key>> shards_for(gen::Distribution dist,
                                         std::size_t total_n,
                                         std::size_t machines) {
  gen::DataGenConfig dcfg;
  dcfg.dist = dist;
  dcfg.domain = 1u << 20;
  dcfg.seed = 99;
  std::vector<std::vector<Key>> out;
  for (std::size_t r = 0; r < machines; ++r)
    out.push_back(gen::generate_shard(dcfg, total_n, machines, r));
  return out;
}

// Worst relative deviation of the output partition sizes from the ideal
// n/p — the metric the epsilon guarantee is stated in.
double imbalance(const Sorter& sorter, std::size_t total_n) {
  const auto& parts = sorter.partitions();
  const double ideal =
      static_cast<double>(total_n) / static_cast<double>(parts.size());
  std::size_t max_sz = 0;
  for (const auto& p : parts) max_sz = std::max(max_sz, p.size());
  return static_cast<double>(max_sz) / ideal - 1.0;
}

// Runs one sort and returns the concatenated output for cross-scheme
// comparison; asserts sortedness, the scheme's imbalance bound and the
// reported partition boundaries inline.
std::vector<Key> run_scheme(PartitionScheme scheme,
                            const std::vector<std::vector<Key>>& shards,
                            double max_imbalance) {
  SortConfig cfg;
  cfg.partition = scheme;
  cfg.partition_epsilon = 0.10;
  cfg.partition_max_rounds = 30;
  EXPECT_TRUE(cfg.validate().empty());

  rt::ClusterConfig ccfg;
  ccfg.machines = shards.size();
  ccfg.threads_per_machine = 2;
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(shards);

  const auto report = validate_sorted(sorter.partitions(), shards);
  EXPECT_TRUE(report.ok()) << report.failure;

  std::size_t total_n = 0;
  for (const auto& s : shards) total_n += s.size();
  if (max_imbalance >= 0.0) {
    EXPECT_LE(imbalance(sorter, total_n), max_imbalance)
        << "scheme " << partition_scheme_name(scheme) << " at p="
        << shards.size();
  }

  const auto& pt = sorter.stats().partition;
  EXPECT_EQ(pt.scheme, scheme);
  if (scheme == PartitionScheme::kHistogramRefine) {
    EXPECT_GE(pt.rounds, 1u);
    EXPECT_GT(pt.probe_keys, 0u);
    EXPECT_LE(pt.achieved_epsilon, cfg.partition_epsilon + 1e-12);
  }
  if (scheme == PartitionScheme::kTwoLevelAms) {
    EXPECT_EQ(pt.groups, sort::ams_group_count(shards.size()));
    EXPECT_GT(pt.level1_items, 0u);
  }

  // SortStats::splitters holds the p-1 boundaries in rank order — under
  // two-level AMS every group's level-2 splitters, with the coarse group
  // splitter between consecutive groups — and each separates its
  // neighbouring partitions.
  const auto& sp = sorter.stats().splitters;
  const auto& parts = sorter.partitions();
  EXPECT_EQ(sp.size(), parts.size() - 1)
      << partition_scheme_name(scheme) << " at p=" << parts.size();
  EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
  for (std::size_t i = 0; i + 1 < parts.size() && i < sp.size(); ++i) {
    if (parts[i].empty() || parts[i + 1].empty()) continue;
    EXPECT_LE(parts[i].back().key, sp[i]) << "boundary " << i;
    EXPECT_LE(sp[i], parts[i + 1].front().key) << "boundary " << i;
  }

  std::vector<Key> flat;
  for (const auto& p : sorter.partitions())
    for (const auto& item : p) flat.push_back(item.key);
  return flat;
}

struct E2eParam {
  gen::Distribution dist;
  // Scheme-appropriate bounds: one-level has no guarantee beyond sample
  // density (loose), histogram is certified to epsilon even on duplicate-
  // heavy data (the resolution round splits dup runs by count), AMS sits
  // in between. A negative bound skips the size check for the key-only
  // schemes, where few-distinct data cannot be balanced by any splitter
  // choice and the investigator's heuristic spreading is covered by the
  // sortedness + equivalence checks instead.
  double one_level;
  double histogram;
  double ams;
};

class SchemeBalance : public ::testing::TestWithParam<E2eParam> {};

TEST_P(SchemeBalance, AllSchemesBalancedAndEquivalentAtP64) {
  const auto param = GetParam();
  const std::size_t p = 64;
  const auto shards = shards_for(param.dist, 32000, p);
  const auto a =
      run_scheme(PartitionScheme::kOneLevelSample, shards, param.one_level);
  const auto b =
      run_scheme(PartitionScheme::kHistogramRefine, shards, param.histogram);
  const auto c =
      run_scheme(PartitionScheme::kTwoLevelAms, shards, param.ams);
  // The partition boundaries may differ, but the concatenated output is
  // the same sorted multiset for every scheme — bit-identical.
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SchemeBalance,
    ::testing::Values(
        E2eParam{gen::Distribution::kUniform, 0.75, 0.25, 0.75},
        E2eParam{gen::Distribution::kRightSkewed, 0.75, 0.25, 0.75},
        E2eParam{gen::Distribution::kZipf, 1.5, 0.25, 1.5},
        E2eParam{gen::Distribution::kFewDistinct, -1.0, 0.25, -1.0}),
    [](const ::testing::TestParamInfo<E2eParam>& param_info) -> std::string {
      switch (param_info.param.dist) {
        case gen::Distribution::kUniform: return "Uniform";
        case gen::Distribution::kRightSkewed: return "Skewed";
        case gen::Distribution::kZipf: return "Zipf";
        case gen::Distribution::kFewDistinct: return "FewDistinct";
        default: return "Other" + std::to_string(param_info.index);
      }
    });

TEST(SchemeBalancePresorted, ContiguousShardsAllSchemesAgreeAtP64) {
  // Globally sorted input dealt as contiguous ranges — every rank's local
  // sample is unrepresentative of the global key space. One-level sampling
  // survives through the master's weighted sample pool; histogram
  // refinement stays certified because its counting rounds are exact.
  const std::size_t p = 64;
  std::mt19937_64 rng(77);
  std::vector<Key> global(32000);
  for (auto& k : global) k = rng() % (1u << 20);
  std::sort(global.begin(), global.end());
  std::vector<std::vector<Key>> shards(p);
  for (std::size_t r = 0; r < p; ++r)
    shards[r].assign(
        global.begin() + static_cast<std::ptrdiff_t>(r * global.size() / p),
        global.begin() +
            static_cast<std::ptrdiff_t>((r + 1) * global.size() / p));
  const auto a = run_scheme(PartitionScheme::kOneLevelSample, shards, 0.75);
  const auto b = run_scheme(PartitionScheme::kHistogramRefine, shards, 0.25);
  const auto c = run_scheme(PartitionScheme::kTwoLevelAms, shards, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(SchemeSplitters, EverySchemeReportsEveryBoundary) {
  for (const auto scheme :
       {PartitionScheme::kOneLevelSample, PartitionScheme::kHistogramRefine,
        PartitionScheme::kTwoLevelAms})
    run_scheme(scheme, shards_for(gen::Distribution::kUniform, 16000, 16),
               -1.0);
  run_scheme(PartitionScheme::kTwoLevelAms,
             shards_for(gen::Distribution::kUniform, 9000, 9), -1.0);
}

// sort::ams_layout cuts p=8 into groups of 3, 3 and 2 members and p=10
// into 4, 3 and 3. Level 1 aims each group at its members' share of the
// keys; with equal group shares a rank of a smaller group would carry
// q / (g * size) of a fair share: 1.333 at p=8, 1.111 at p=10.
TEST(SchemeBalanceAms, UnequalGroupsGetTheirMembersShare) {
  for (const std::size_t p : {std::size_t{8}, std::size_t{10}})
    run_scheme(PartitionScheme::kTwoLevelAms,
               shards_for(gen::Distribution::kUniform, 4096 * p, p), 0.01);
}

TEST(SchemeBalanceLarge, HistogramAndAmsAtP256) {
  const std::size_t p = 256;
  const auto shards = shards_for(gen::Distribution::kRightSkewed, 32768, p);
  const auto b = run_scheme(PartitionScheme::kHistogramRefine, shards, 0.5);
  const auto c = run_scheme(PartitionScheme::kTwoLevelAms, shards, 1.0);
  EXPECT_EQ(b, c);
}

TEST(SchemeBalanceLarge, HistogramAtP1024) {
  // The check.sh `scale` smoke case in-suite: p = 1024 simulated ranks,
  // tiny shards, histogram refinement certified to epsilon.
  const std::size_t p = 1024;
  const auto shards = shards_for(gen::Distribution::kUniform, 32768, p);
  run_scheme(PartitionScheme::kHistogramRefine, shards, 1.0);
}

// Each rank ships s = 32 samples at p = 1024 and n = 262,144 (the paper's
// X = 256 KiB / p budget), far fewer than p. Samples at the same local
// quantiles on every rank would stack into s clusters of p near-equal keys
// and leave whole buckets between them (one-level epsilon 14.0 and AMS
// 0.43 in the crossover sweep); each rank's phase spreads the master's
// pool over p * s distinct quantiles.
TEST(SchemeBalanceLarge, InterleavedSamplesBalanceOneLevelAndAmsAtP1024) {
  const std::size_t p = 1024;
  const auto shards = shards_for(gen::Distribution::kUniform, 262144, p);
  const auto a = run_scheme(PartitionScheme::kOneLevelSample, shards, 0.999);
  const auto c = run_scheme(PartitionScheme::kTwoLevelAms, shards, 0.1);
  EXPECT_EQ(a, c);
}

// Draw rounds thin every subtree's draws to the refiner's per-interval
// probe cap on the way up the scope tree, so the master's receive port
// takes in at most kProbeCapPerInterval keys per interval from each child
// instead of kDrawPerInterval from every member of the child's subtree.
// The master's receive time also holds step 4's counts relay (255 count
// vectors of 256 u64s, 0.5 MB) either way; forwarding every draw to the
// root put it at 173 us, thinning at 125 us.
TEST(SchemeBalanceLarge, HistogramDrawRepliesStayThinAtTheMaster) {
  const std::size_t p = 256;
  const auto shards = shards_for(gen::Distribution::kZipf, p * 256, p);
  SortConfig cfg;
  cfg.partition = PartitionScheme::kHistogramRefine;
  rt::ClusterConfig ccfg;
  ccfg.machines = p;
  ccfg.threads_per_machine = 2;
  rt::Cluster<Sorter::Msg> cluster(ccfg);
  Sorter sorter(cluster, cfg);
  sorter.run(shards);
  EXPECT_TRUE(validate_sorted(sorter.partitions(), shards).ok());
  EXPECT_LE(sorter.stats().partition.achieved_epsilon,
            cfg.partition_epsilon + 1e-12);
  EXPECT_LT(cluster.fabric().rx_busy(0), 150 * sim::kMicrosecond);
}

// ---- The scope tree the scale-out control plane runs over -------------------

TEST(ScopeTree, ShapeForEveryScopeUpTo1100) {
  constexpr std::size_t k = ScopeTree::kFanout;
  for (std::size_t q = 1; q <= 1100; ++q) {
    std::vector<ScopeTree> nodes;
    for (std::size_t i = 0; i < q; ++i) nodes.emplace_back(q, i);
    std::size_t max_depth = 0;  // ceil(log_k q): least d with k^d >= q
    for (std::size_t reach = 1; reach < q; reach *= k) ++max_depth;
    std::vector<std::size_t> listed_by(q, 0);
    for (std::size_t i = 0; i < q; ++i) {
      const ScopeTree& t = nodes[i];
      ASSERT_LE(t.children.size(), k) << "q=" << q << " node " << i;
      ASSERT_LE(t.depth, max_depth) << "q=" << q << " node " << i;
      ASSERT_EQ(t.root(), i == 0);
      // Children split the rest of the node's range into ascending,
      // contiguous ranges, each of which is that child's own range.
      std::size_t next = i + 1;
      for (std::size_t c = 0; c < t.children.size(); ++c) {
        const std::size_t j = t.children[c];
        ASSERT_EQ(j, next) << "q=" << q << " node " << i;
        ASSERT_EQ(t.child_pos(j), c);
        ASSERT_EQ(nodes[j].parent, i);
        ASSERT_EQ(nodes[j].depth, t.depth + 1);
        ASSERT_EQ(nodes[j].end, t.child_end(c));
        ASSERT_GT(t.child_end(c), j);
        ++listed_by[j];
        next = t.child_end(c);
      }
      ASSERT_EQ(next, t.end) << "q=" << q << " node " << i;
      ASSERT_EQ(t.child_pos(i), t.children.size());
    }
    ASSERT_EQ(nodes[0].end, q);
    ASSERT_EQ(listed_by[0], 0u);
    for (std::size_t i = 1; i < q; ++i)
      ASSERT_EQ(listed_by[i], 1u) << "q=" << q << " node " << i;
    // Preorder is index order.
    std::vector<std::size_t> order, stack{0};
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      order.push_back(i);
      const auto& ch = nodes[i].children;
      stack.insert(stack.end(), ch.rbegin(), ch.rend());
    }
    std::vector<std::size_t> index_order(q);
    std::iota(index_order.begin(), index_order.end(), std::size_t{0});
    ASSERT_EQ(order, index_order) << "q=" << q;
  }
}

// The scope master sends each control round's frames to its at most k tree
// children only, never to every member. Flows carry the sender and the tag,
// and on a clean fabric every child receives exactly one frame per round,
// so the master's frames per round are its distinct destinations.
TEST(ScopeTree, MasterSendsAtMostKFramesPerControlRound) {
  const std::size_t p = 256;
  const auto shards = shards_for(gen::Distribution::kZipf, p * 64, p);
  for (const auto& [scheme, label] :
       {std::pair{PartitionScheme::kHistogramRefine, "probe"},
        std::pair{PartitionScheme::kTwoLevelAms, "group-splitters"}}) {
    SortConfig cfg;
    cfg.partition = scheme;
    rt::ClusterConfig ccfg;
    ccfg.machines = p;
    ccfg.threads_per_machine = 2;
    rt::Cluster<Sorter::Msg> cluster(ccfg);
    sim::Trace trace;
    Sorter sorter(cluster, cfg);
    sorter.set_trace(&trace);
    sorter.run(shards);

    std::map<std::size_t, std::size_t> per_dst;
    for (const auto& f : trace.flows())
      if (f.src == 0 && f.kind == sim::Trace::FlowKind::kData &&
          trace.tag_label(f.tag) == label)
        ++per_dst[f.dst];
    ASSERT_FALSE(per_dst.empty()) << label;
    EXPECT_LE(per_dst.size(), ScopeTree::kFanout) << label;
    const std::size_t rounds = per_dst.begin()->second;
    for (const auto& [dst, frames] : per_dst)
      EXPECT_EQ(frames, rounds) << label << " to rank " << dst;
    if (scheme == PartitionScheme::kHistogramRefine) {
      EXPECT_GE(rounds, 3u) << "a counting round, the resolution round and "
                               "the down-sweep at least";
    }
  }
}

}  // namespace
}  // namespace pgxd::core
