// Tests for the single-pass parallel k-way merge: the multisequence
// selection (kway_select), bit-identical agreement with the Fig. 2 pairwise
// tree on both planes (keys AND permutation: the tree runs over (key,
// index) records, and the sorter's provenance rides the (run, index) the
// merge emits), and the per-range split on inputs large enough to engage
// it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/kway_merge.hpp"
#include "sort/parallel_kway_merge.hpp"

namespace pgxd::sort {
namespace {

struct RunSet {
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> bounds;
};

RunSet make_runs(std::size_t runs, std::size_t max_per_run, std::uint64_t seed,
                 std::uint64_t domain = 1 << 20, bool allow_empty = true) {
  Rng rng(seed);
  RunSet rs;
  rs.bounds.assign(1, 0);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t len =
        allow_empty ? rng.bounded(max_per_run + 1)
                    : 1 + rng.bounded(max_per_run);
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.bounded(domain);
    std::sort(run.begin(), run.end());
    rs.keys.insert(rs.keys.end(), run.begin(), run.end());
    rs.bounds.push_back(rs.keys.size());
  }
  return rs;
}

// Reference: the Fig. 2 pairwise tree over (key, index) records, ordered by
// key alone, whose output (both planes) the parallel k-way merge must
// reproduce bit for bit. The tree breaks ties toward the lower run, as the
// loser tree does.
void reference_merge(const RunSet& rs, std::vector<std::uint64_t>& keys,
                     std::vector<std::uint32_t>& perm) {
  struct Rec {
    std::uint64_t key;
    std::uint32_t index;
  };
  std::vector<Rec> recs(rs.keys.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    recs[i] = {rs.keys[i], static_cast<std::uint32_t>(i)};
  std::vector<Rec> scratch;
  balanced_merge(recs, rs.bounds, scratch,
                 [](const Rec& a, const Rec& b) { return a.key < b.key; });
  keys.resize(recs.size());
  perm.resize(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    keys[i] = recs[i].key;
    perm[i] = recs[i].index;
  }
}

TEST(KwaySelect, PrefixMatchesStableMerge) {
  // cursor(k) must carve exactly the first k elements of the stable merge,
  // ties dealt to the lower run — checked against the reference merge's
  // permutation plane at every 97th rank.
  const RunSet rs = make_runs(7, 600, 11, /*domain=*/64);  // heavy ties
  std::vector<std::uint64_t> mkeys;
  std::vector<std::uint32_t> mperm;
  reference_merge(rs, mkeys, mperm);
  const std::size_t n = rs.keys.size();
  const auto runs = runs_of<std::uint64_t>(rs.keys.data(), rs.bounds);
  for (std::size_t k = 0; k <= n; k += 97) {
    const auto cur = kway_select<std::uint64_t>(runs, k);
    std::size_t total = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      ASSERT_LE(cur[r], runs[r].size());
      total += cur[r];
    }
    ASSERT_EQ(total, k);
    // The selected set must be exactly the pre-merge positions of the
    // stable merge's first k elements.
    std::vector<bool> selected(n, false);
    for (std::size_t r = 0; r < runs.size(); ++r)
      for (std::size_t i = 0; i < cur[r]; ++i)
        selected[rs.bounds[r] + i] = true;
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_TRUE(selected[mperm[i]]) << "rank " << i << " of prefix " << k;
  }
}

class ParallelKwaySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ParallelKwaySweep, BitIdenticalToPairwiseTree) {
  const auto [runs, domain] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RunSet rs = make_runs(runs, 1200, seed * 131 + runs, domain);
    std::vector<std::uint64_t> want_keys;
    std::vector<std::uint32_t> want_perm;
    reference_merge(rs, want_keys, want_perm);

    std::vector<std::uint32_t> perm(rs.keys.size());
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t ranges : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      std::vector<std::uint64_t> got_keys;
      std::vector<std::uint32_t> got_perm;
      const auto stats = parallel_kway_merge_soa(
          rs.keys, perm, rs.bounds, got_keys, got_perm, Less{}, ranges);
      EXPECT_EQ(got_keys, want_keys);
      EXPECT_EQ(got_perm, want_perm);
      EXPECT_EQ(stats.runs, runs);
      EXPECT_LE(stats.ranges, std::max<std::size_t>(1, ranges));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RunsByDomain, ParallelKwaySweep,
    // 33 runs pad to 64 leaves; 256 runs is the p=256 merge, 8 levels deep.
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 16, 32,
                                                      33, 52, 256),
                       // full-width, tie-heavy, and single-value keys
                       ::testing::Values(std::uint64_t{1} << 40,
                                         std::uint64_t{40}, std::uint64_t{1})));

TEST(ParallelKwayMerge, PresortedAndEmptyRuns) {
  // Presorted: run r's keys all below run r+1's (splitters land on run
  // boundaries); plus interleaved empty runs.
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> bounds{0};
  Rng rng(3);
  std::uint64_t base = 0;
  for (std::size_t len : {0u, 900u, 0u, 0u, 2500u, 1u, 700u, 0u}) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = base + rng.bounded(1000);
    std::sort(run.begin(), run.end());
    keys.insert(keys.end(), run.begin(), run.end());
    bounds.push_back(keys.size());
    base += 1000;
  }
  const RunSet rs{keys, bounds};
  std::vector<std::uint64_t> want_keys;
  std::vector<std::uint32_t> want_perm;
  reference_merge(rs, want_keys, want_perm);
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> got_keys;
  std::vector<std::uint32_t> got_perm;
  parallel_kway_merge_soa(keys, perm, bounds, got_keys, got_perm, Less{},
                          /*ranges=*/5);
  EXPECT_EQ(got_keys, want_keys);
  EXPECT_EQ(got_perm, want_perm);
}

TEST(ParallelKwayMerge, AosMatchesSequentialKway) {
  const RunSet rs = make_runs(9, 2000, 17, /*domain=*/50);  // heavy ties
  auto seq = rs.keys;
  std::vector<std::uint64_t> scratch;
  kway_merge(seq, rs.bounds, scratch);
  std::vector<std::uint64_t> par;
  const auto stats =
      parallel_kway_merge(rs.keys, rs.bounds, par, Less{}, /*ranges=*/6);
  EXPECT_EQ(par, seq);
  EXPECT_GT(stats.select_rounds, 0u);
}

TEST(ParallelKwayMerge, EmptyAndSingleRun) {
  std::vector<std::uint64_t> empty, out;
  auto stats = parallel_kway_merge(empty, {0}, out);
  EXPECT_EQ(stats.runs, 0u);
  EXPECT_TRUE(out.empty());

  std::vector<std::uint64_t> one{3, 5, 9};
  stats = parallel_kway_merge(one, {0, 3}, out);
  EXPECT_EQ(out, one);
  EXPECT_EQ(stats.ranges, 1u);
}

TEST(ParallelKwayMerge, RangeClampKeepsPiecesCoarse) {
  // Tiny inputs must not shatter into per-element ranges.
  const RunSet rs = make_runs(4, 40, 23, 1 << 10, /*allow_empty=*/false);
  std::vector<std::uint64_t> out;
  const auto stats =
      parallel_kway_merge(rs.keys, rs.bounds, out, Less{}, 64);
  EXPECT_EQ(stats.ranges, 1u);
  auto expect = rs.keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out, expect);
}

TEST(ParallelKwayMerge, RangeSplitMatchesOneRange) {
  // Five ranges asked for, as a 5-thread machine cuts its final merge (the
  // clamp keeps at least kMinMergePiece per range), against one loser tree
  // over the whole output, repeated across shapes.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    // >= 2 * kMinMergePiece elements guaranteed, so the split engages.
    Rng rng(41 + seed);
    RunSet rs;
    rs.bounds.assign(1, 0);
    for (std::size_t r = 0; r < 5 + seed; ++r) {
      std::vector<std::uint64_t> run(2000 + rng.bounded(2000));
      for (auto& x : run) x = rng.bounded(std::uint64_t{1} << (4 + seed));
      std::sort(run.begin(), run.end());
      rs.keys.insert(rs.keys.end(), run.begin(), run.end());
      rs.bounds.push_back(rs.keys.size());
    }
    std::vector<std::uint64_t> want;
    parallel_kway_merge(rs.keys, rs.bounds, want);  // one range
    std::vector<std::uint32_t> perm(rs.keys.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> got_keys;
    std::vector<std::uint32_t> got_perm;
    const auto aos = parallel_kway_merge(rs.keys, rs.bounds, got, Less{},
                                         /*ranges=*/5);
    const auto soa = parallel_kway_merge_soa(rs.keys, perm, rs.bounds,
                                             got_keys, got_perm, Less{},
                                             /*ranges=*/5);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_keys, want);
    EXPECT_GT(aos.ranges, 1u);
    EXPECT_GT(soa.ranges, 1u);
    for (std::size_t i = 0; i < got_perm.size(); ++i)
      EXPECT_EQ(rs.keys[got_perm[i]], got_keys[i]);
  }
}

TEST(ParallelKwayMerge, SearchAndTournamentWorkIsPinned) {
  // 52 runs cut into 32 ranges, on full-width and on tie-heavy keys. The
  // splitter search probes inside each run's candidate window; it is exact,
  // so its rounds are those of a whole-run search (513 and 213). The
  // tournament's count is one per match between two live contestants plus
  // one successor check per emitted key whose run has a next key (n - 52 =
  // 133,763 here). Full-width keys almost never repeat, so every emitted
  // key still replays: the same 788,536 tree matches as before the
  // equal-successor skip, plus the checks, 922,299. On tie-heavy keys (300
  // values) most keys are followed by an equal key in their run and skip
  // their replay, so the count falls from 787,438 to 226,110.
  const std::pair<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      cases[] = {{std::uint64_t{1} << 40, {513, 922299}}, {300, {213, 226110}}};
  for (const auto& [domain, want] : cases) {
    Rng rng(2017);
    std::vector<std::uint64_t> keys;
    std::vector<std::size_t> bounds{0};
    for (std::size_t r = 0; r < 52; ++r) {
      std::vector<std::uint64_t> run(1000 + rng.bounded(3000));
      for (auto& x : run) x = rng.bounded(domain);
      std::sort(run.begin(), run.end());
      keys.insert(keys.end(), run.begin(), run.end());
      bounds.push_back(keys.size());
    }
    ASSERT_EQ(keys.size(), 133815u);
    std::vector<std::uint32_t> perm(keys.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::vector<std::uint64_t> got_keys;
    std::vector<std::uint32_t> got_perm;
    const auto stats = parallel_kway_merge_soa(keys, perm, bounds, got_keys,
                                               got_perm, Less{},
                                               /*ranges=*/32);
    EXPECT_EQ(stats.ranges, 32u);
    EXPECT_EQ(stats.select_rounds, want.first) << "domain " << domain;
    EXPECT_EQ(stats.comparisons, want.second) << "domain " << domain;
    EXPECT_TRUE(std::is_sorted(got_keys.begin(), got_keys.end()));
  }
}

}  // namespace
}  // namespace pgxd::sort
