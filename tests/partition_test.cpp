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
//      three schemes produce the identical final sorted sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"
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
  const auto out = draw_candidates<Key>(data, ivs, 4);
  ASSERT_FALSE(out.empty());
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
  const auto out = draw_candidates<Key>(data, ivs, 6);
  EXPECT_EQ(out.size(), 6u);  // cap from the wide interval, zero from empty
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
  for (const auto& r : ranks)
    for (std::size_t i = 0; i < per_rank && !r.empty(); ++i)
      init.push_back(r[(i + 1) * r.size() / (per_rank + 1)]);
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
    for (const auto& r : ranks) {
      const auto got = draw_candidates<Key>(r, ivs, kDrawPerInterval);
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
  std::string n = "P" + std::to_string(info.param.parts);
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

// ---- Control-volume crossover ----------------------------------------------

TEST(ControlVolume, CrossoverFavorsScalableSchemesAtLargeP) {
  const std::uint64_t key_bytes = 8, sample = 512, rounds = 3, probes = 8;
  auto total = [&](PartitionScheme s, std::uint64_t q) {
    return model_control_volume(s, q, key_bytes, sample, rounds, probes)
        .total();
  };
  // Small p: the flat scheme's O(p^2) terms are still cheap and the extra
  // machinery costs more than it saves.
  EXPECT_LE(total(PartitionScheme::kOneLevelSample, 16),
            total(PartitionScheme::kTwoLevelAms, 16));
  // Large p: both refined schemes beat the baseline on total volume, and
  // AMS kills the O(p^2) splitter/counts control plane outright (its total
  // is dominated by the benign sample term).
  auto control = [&](PartitionScheme s, std::uint64_t q) {
    const auto v =
        model_control_volume(s, q, key_bytes, sample, rounds, probes);
    return v.splitter_bytes + v.counts_bytes;
  };
  for (std::uint64_t q : {1024u, 2048u, 4096u}) {
    EXPECT_LT(total(PartitionScheme::kHistogramRefine, q),
              total(PartitionScheme::kOneLevelSample, q))
        << q;
    EXPECT_LT(total(PartitionScheme::kTwoLevelAms, q),
              total(PartitionScheme::kOneLevelSample, q))
        << q;
    EXPECT_LT(control(PartitionScheme::kTwoLevelAms, q),
              control(PartitionScheme::kOneLevelSample, q) / 10)
        << q;
  }
  // The model is monotone in q for every scheme.
  for (auto s : {PartitionScheme::kOneLevelSample,
                 PartitionScheme::kHistogramRefine,
                 PartitionScheme::kTwoLevelAms})
    for (std::uint64_t q = 64; q < 4096; q *= 2)
      EXPECT_LT(total(s, q), total(s, q * 2)) << static_cast<int>(s);
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
// comparison; asserts sortedness and the scheme's imbalance bound inline.
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

}  // namespace
}  // namespace pgxd::core
