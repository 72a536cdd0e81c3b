// Microbenchmarks (google-benchmark) of the real local sorting kernels:
// quicksort, radix sort, TimSort, the Fig. 2 balanced merge handler and the
// k-way merges. Every kernel runs on the calling thread; the simulator's
// cost model (runtime/cost_model.cpp) charges the paper's per-machine
// threads on the simulated clock.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/local_sort.hpp"
#include "sort/merge.hpp"
#include "sort/parallel_kway_merge.hpp"
#include "sort/quicksort.hpp"
#include "sort/timsort.hpp"

namespace {

using pgxd::Rng;

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t domain,
                                       std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = domain ? rng.bounded(domain) : rng.next();
  return v;
}

void BM_Quicksort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_keys(n, 0);
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::quicksort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Quicksort)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// Duplicate-heavy input: the pdqsort-style equal-range fast path should keep
// this at least as fast as the uniform case, never slower.
void BM_QuicksortDupHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_keys(n, 100);
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::quicksort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuicksortDupHeavy)->Arg(1 << 20);

// Skewed input: values cluster near zero with a long tail (variable-width
// draws), stressing uneven pivot splits.
void BM_QuicksortSkewed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(41);
  std::vector<std::uint64_t> base(n);
  for (auto& x : base) x = rng.next() >> (rng.bounded(56));
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::quicksort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuicksortSkewed)->Arg(1 << 20);

// Ablation: block partition with the SIMD classify disabled. The gap to
// BM_Quicksort is the win attributable to the AVX2/SSE compress-store
// classify alone.
void BM_QuicksortNoSimd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_keys(n, 0);
  pgxd::sort::QuicksortConfig cfg;
  cfg.simd_partition = false;
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::quicksort(std::span<std::uint64_t>(v), {}, cfg);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QuicksortNoSimd)->Arg(1 << 20);

// LSD radix sort on full-width and 32-bit-wide keys — the data points
// behind the adaptive crossover's constants (sort/local_sort.hpp).
void BM_RadixSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto domain = static_cast<std::uint64_t>(state.range(1));
  const auto base = random_keys(n, domain);
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::radix_sort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSort)
    ->Args({1 << 20, 0})                       // 8 passes
    ->Args({1 << 20, std::int64_t{1} << 32});  // 4 passes

// The adaptive local sort as the sorter's step (1) runs it: full-width
// keys stay on the comparison sort at this size, 32-bit-wide keys flip to
// radix.
void BM_LocalSortAdaptive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto domain = static_cast<std::uint64_t>(state.range(1));
  const auto base = random_keys(n, domain);
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::local_sort(v, pgxd::sort::LocalSortAlgo::kAdaptive);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LocalSortAdaptive)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, std::int64_t{1} << 32});

void BM_StdSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_keys(n, 0);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 17)->Arg(1 << 20);

void BM_TimsortRandom(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = random_keys(n, 0);
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::timsort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimsortRandom)->Arg(1 << 17)->Arg(1 << 20);

// TimSort's home turf: data made of pre-sorted runs (the paper notes Spark
// picked TimSort because "it performs better when the data is partially
// sorted").
void BM_TimsortPresortedRuns(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> base;
  Rng rng(7);
  const std::size_t run_len = 4096;
  while (base.size() < n) {
    std::vector<std::uint64_t> run(std::min(run_len, n - base.size()));
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    base.insert(base.end(), run.begin(), run.end());
  }
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::timsort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimsortPresortedRuns)->Arg(1 << 20);

void BM_MergeInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_keys(n / 2, 0, 1);
  auto b = random_keys(n / 2, 0, 2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    pgxd::sort::merge_into<std::uint64_t>(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MergeInto)->Arg(1 << 17)->Arg(1 << 21);

void BM_BalancedMergeTree(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  const std::size_t per_run = (1u << 21) / runs;
  Rng rng(5);
  std::vector<std::uint64_t> base;
  std::vector<std::size_t> bounds{0};
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    base.insert(base.end(), run.begin(), run.end());
    bounds.push_back(base.size());
  }
  std::vector<std::uint64_t> scratch;
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::balanced_merge(v, bounds, scratch);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_BalancedMergeTree)->Arg(4)->Arg(8)->Arg(32);

// Array-of-records merge: full key+provenance records (24 bytes with
// padding) through every level of the Fig. 2 tree, against the keys-only
// BM_BalancedMergeTree above. The tree runs on records here only; the
// distributed sorter merges with a loser tree and charges the tree.
void BM_BalancedMergeItemTree(benchmark::State& state) {
  struct FatItem {
    std::uint64_t key;
    std::uint32_t src;
    std::uint64_t idx;
  };
  const auto runs = static_cast<std::size_t>(state.range(0));
  const std::size_t per_run = (1u << 21) / runs;
  Rng rng(5);
  std::vector<FatItem> base;
  std::vector<std::size_t> bounds{0};
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    for (std::size_t i = 0; i < run.size(); ++i)
      base.push_back({run[i], static_cast<std::uint32_t>(r), i});
    bounds.push_back(base.size());
  }
  std::vector<FatItem> scratch;
  const auto less = [](const FatItem& a, const FatItem& b) {
    return a.key < b.key;
  };
  for (auto _ : state) {
    auto v = base;
    pgxd::sort::balanced_merge(v, bounds, scratch, less);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_BalancedMergeItemTree)->Arg(4)->Arg(8)->Arg(32);

// Single-pass parallel k-way SoA merge, keys plus a u32 permutation, over
// the same input shape as BM_BalancedMergeTree: splitter search + one loser
// tree per range, 4 ranges run one after another. One move per element
// instead of one per level is this bench against that one.
void BM_ParallelKwayMergeSoa(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  const std::size_t per_run = (1u << 21) / runs;
  Rng rng(5);
  std::vector<std::uint64_t> base;
  std::vector<std::size_t> bounds{0};
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = rng.next();
    std::sort(run.begin(), run.end());
    base.insert(base.end(), run.begin(), run.end());
    bounds.push_back(base.size());
  }
  std::vector<std::uint32_t> perm_base(base.size());
  std::vector<std::uint64_t> key_out;
  std::vector<std::uint32_t> perm_out;
  for (auto _ : state) {
    pgxd::sort::parallel_kway_merge_soa(base, perm_base, bounds, key_out,
                                        perm_out, {}, 4);
    benchmark::DoNotOptimize(key_out.data());
    benchmark::DoNotOptimize(perm_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_ParallelKwayMergeSoa)->Arg(4)->Arg(8)->Arg(32);

// Single-range variant: one loser tree over the whole output and no
// splitter search, so its gap to BM_ParallelKwayMergeSoa/32 is what the
// search costs. Args: runs, key domain (0 = full-width). 256 runs is the
// p=256 merge, 8 tree levels deep; domain 40 puts long stretches of equal
// keys in every run, so most keys skip their replay.
void BM_ParallelKwayMergeSoaSeq(benchmark::State& state) {
  const auto runs = static_cast<std::size_t>(state.range(0));
  const auto domain = static_cast<std::uint64_t>(state.range(1));
  const std::size_t per_run = (1u << 21) / runs;
  Rng rng(5);
  std::vector<std::uint64_t> base;
  std::vector<std::size_t> bounds{0};
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::uint64_t> run(per_run);
    for (auto& x : run) x = domain ? rng.bounded(domain) : rng.next();
    std::sort(run.begin(), run.end());
    base.insert(base.end(), run.begin(), run.end());
    bounds.push_back(base.size());
  }
  std::vector<std::uint32_t> perm_base(base.size());
  std::vector<std::uint64_t> key_out;
  std::vector<std::uint32_t> perm_out;
  for (auto _ : state) {
    pgxd::sort::parallel_kway_merge_soa(base, perm_base, bounds, key_out,
                                        perm_out, {}, 1);
    benchmark::DoNotOptimize(key_out.data());
    benchmark::DoNotOptimize(perm_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}
BENCHMARK(BM_ParallelKwayMergeSoaSeq)->ArgsProduct({{32, 256}, {0, 40}});

}  // namespace

BENCHMARK_MAIN();
